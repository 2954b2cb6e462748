(* Tests for the relational algebra: parser, typechecker, evaluator,
   optimizer. *)

module A = Diagres_ra.Ast
module D = Diagres_data

let db = Testutil.db
let env = Testutil.env
let parse = Diagres_ra.Parser.parse
let eval src = Diagres_ra.Eval.eval db (parse src)

(* ---------------- parser ---------------- *)

let test_parse_basics () =
  (match parse "Sailor" with
  | A.Rel "Sailor" -> ()
  | _ -> Alcotest.fail "rel");
  (match parse "project[sid](Sailor)" with
  | A.Project ([ "sid" ], A.Rel "Sailor") -> ()
  | _ -> Alcotest.fail "project");
  (match parse "sigma[rating >= 8](Sailor)" with
  | A.Select (A.Cmp (Diagres_logic.Fol.Ge, A.Attr "rating", A.Const (D.Value.Int 8)), _) -> ()
  | _ -> Alcotest.fail "sigma alias")

let test_parse_precedence () =
  (* union binds looser than join *)
  match parse "Sailor union Boat join Reserves" with
  | A.Union (A.Rel "Sailor", A.Join (A.Rel "Boat", A.Rel "Reserves")) -> ()
  | e -> Alcotest.failf "precedence: %s" (Diagres_ra.Pretty.ascii e)

let test_parse_errors () =
  let fails s =
    match parse s with
    | exception Diagres_ra.Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "should not parse: %s" s
  in
  fails "select[rating >](Sailor)";
  fails "Sailor join";
  fails "project[sid](Sailor) trailing"

let prop_parse_print_roundtrip =
  QCheck.Test.make ~name:"RA: parse ∘ ascii = id" ~count:200
    (Testutil.arbitrary_ra ())
    (fun e -> parse (Diagres_ra.Pretty.ascii e) = e)

(* ---------------- typecheck ---------------- *)

let test_typecheck_infer () =
  let s = Diagres_ra.Typecheck.infer env (parse "project[sid](Sailor)") in
  Alcotest.(check (list string)) "schema" [ "sid" ] (D.Schema.names s);
  let j = Diagres_ra.Typecheck.infer env (parse "Sailor join Reserves") in
  Alcotest.(check int) "join arity" 6 (D.Schema.arity j)

let test_typecheck_errors () =
  let fails s =
    match Diagres_ra.Typecheck.infer env (parse s) with
    | exception Diagres_ra.Typecheck.Type_error _ -> ()
    | _ -> Alcotest.failf "should not typecheck: %s" s
  in
  fails "Nowhere";
  fails "project[zzz](Sailor)";
  fails "select[zzz = 1](Sailor)";
  fails "Sailor * Sailor";
  fails "Sailor union Boat";
  fails "rename[sid -> sname](Sailor)";
  fails "Boat div project[sid](Sailor)"

(* ---------------- eval ---------------- *)

let test_eval_select_project () =
  Testutil.check_same_rows "high rated"
    (Testutil.sids [ 58; 71 ])
    (eval "project[sid](select[rating = 10](Sailor))")

let test_eval_join_q1 () =
  Testutil.check_same_rows "q1"
    (Testutil.sids D.Sample_db.q1_expected_sids)
    (eval "project[sid](Reserves join project[bid](select[color = 'red'](Boat)))")

let test_eval_division_q3 () =
  Testutil.check_same_rows "q3"
    (Testutil.sids D.Sample_db.q3_expected_sids)
    (eval "project[sid,bid](Reserves) div project[bid](select[color='red'](Boat))")

let test_eval_setops_q2 () =
  Testutil.check_same_rows "q2"
    (Testutil.sids D.Sample_db.q2_expected_sids)
    (eval
       "project[sid](Sailor) minus project[sid](Reserves join \
        project[bid](select[color='red'](Boat)))")

let test_eval_theta_join () =
  let r =
    eval
      "project[sid, sid2](rename[sid -> sid2, sname -> sname2, rating -> \
       rating2, age -> age2](Sailor) join[rating = rating2 and age > age2] \
       Sailor)"
  in
  Alcotest.(check int) "q5 pairs" 4 (D.Relation.cardinality r)

let test_eval_product () =
  let r = eval "project[sid](Sailor) * project[bid](Boat)" in
  Alcotest.(check int) "product size" 40 (D.Relation.cardinality r)

let test_eval_nullary_projection () =
  let r = eval "project[](select[color = 'red'](Boat))" in
  Alcotest.(check int) "boolean true = one empty tuple" 1 (D.Relation.cardinality r);
  let r2 = eval "project[](select[color = 'mauve'](Boat))" in
  Alcotest.(check int) "boolean false = empty" 0 (D.Relation.cardinality r2)

(* ---------------- optimizer ---------------- *)

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves semantics" ~count:200
    (Testutil.arbitrary_ra ~fuel:4 ())
    (fun e ->
      let o = Diagres_ra.Optimize.optimize env e in
      D.Relation.same_rows (Diagres_ra.Eval.eval db e) (Diagres_ra.Eval.eval db o))

let prop_optimize_idempotent =
  QCheck.Test.make ~name:"optimize is idempotent" ~count:100
    (Testutil.arbitrary_ra ~fuel:4 ())
    (fun e ->
      let o = Diagres_ra.Optimize.optimize env e in
      A.equal o (Diagres_ra.Optimize.optimize env o))

let test_optimize_pushdown () =
  (* σ over × must become a join or pushed selections *)
  let e =
    parse
      "select[sid = sid_p and rating = 9]((Sailor) * rename[sid -> sid_p, \
       bid -> bid_p, day -> day_p](Reserves))"
  in
  let o = Diagres_ra.Optimize.optimize env e in
  (match o with
  | A.Theta_join _ -> ()
  | _ -> Alcotest.failf "expected theta join, got %s" (Diagres_ra.Pretty.ascii o));
  Alcotest.(check bool) "same result" true
    (D.Relation.same_rows (Diagres_ra.Eval.eval db e) (Diagres_ra.Eval.eval db o))

let test_optimize_cascades () =
  let e = parse "select[rating = 9](select[age > 30.0](Sailor))" in
  match Diagres_ra.Optimize.optimize env e with
  | A.Select (A.And _, A.Rel "Sailor") -> ()
  | o -> Alcotest.failf "expected merged selection, got %s" (Diagres_ra.Pretty.ascii o)

let test_optimize_identity_projection () =
  let e = parse "project[sid, sname, rating, age](Sailor)" in
  match Diagres_ra.Optimize.optimize env e with
  | A.Rel "Sailor" -> ()
  | o -> Alcotest.failf "expected bare relation, got %s" (Diagres_ra.Pretty.ascii o)

(* ---------------- physical planner ---------------- *)

module Plan = Diagres_ra.Plan
module Planner = Diagres_ra.Planner

let eval_planned src = Diagres_ra.Eval.eval_planned db (parse src)

let prop_planned_matches_naive =
  QCheck.Test.make ~name:"eval_planned = eval" ~count:250
    (Testutil.arbitrary_ra ())
    (fun e ->
      D.Relation.same_rows (Diagres_ra.Eval.eval db e)
        (Diagres_ra.Eval.eval_planned db e))

let prop_planned_matches_naive_deep =
  QCheck.Test.make ~name:"eval_planned = eval (deeper trees)" ~count:100
    (Testutil.arbitrary_ra ~fuel:4 ())
    (fun e ->
      D.Relation.same_rows (Diagres_ra.Eval.eval db e)
        (Diagres_ra.Eval.eval_planned db e))

let test_planned_catalog () =
  (* the five tutorial queries, planned vs. reference, on the sample db and
     a few random instances *)
  List.iter
    (fun entry ->
      let e = Diagres.Catalog.parsed_ra entry in
      List.iter
        (fun dbi ->
          Testutil.check_same_rows
            ("planned " ^ entry.Diagres.Catalog.id)
            (Diagres_ra.Eval.eval dbi e)
            (Diagres_ra.Eval.eval_planned dbi e))
        (db :: Testutil.random_dbs 4))
    Diagres.Catalog.all

let plan_ops src =
  let p = Planner.plan db (parse src) in
  Plan.fold_unique (fun n acc -> n.Plan.op :: acc) p []

let test_planner_extracts_hash_join () =
  (* q5's theta self-join must become a hash join on the equality conjunct,
     with no nested-loop fallback anywhere in the plan *)
  let ops = plan_ops (Diagres.Catalog.find "q5").Diagres.Catalog.ra in
  let is_hash = function Plan.Hash_join _ -> true | _ -> false in
  let is_nl = function Plan.Nl_join _ -> true | _ -> false in
  Alcotest.(check bool) "has hash join" true (List.exists is_hash ops);
  Alcotest.(check bool) "no nested loop" false (List.exists is_nl ops)

let test_planner_pure_product_stays_nl () =
  let ops = plan_ops "project[sid](Sailor) * project[bid](Boat)" in
  Alcotest.(check bool) "product stays a nested loop" true
    (List.exists (function Plan.Nl_join _ -> true | _ -> false) ops)

let test_planner_shared_subtree_evaluated_once () =
  let sub = "project[sid](select[rating > 7](Sailor))" in
  let p = Planner.plan db (parse (sub ^ " union " ^ sub)) in
  let _, prof = Plan.run_profiled p in
  Alcotest.(check int) "each distinct node computed once"
    (Plan.fold_unique (fun _ k -> k + 1) p 0)
    (Plan.total_evals prof);
  Alcotest.(check bool) "memo hit on the shared branch" true
    (Plan.total_hits prof >= 1)

let test_planner_explain_counts () =
  let p = Planner.plan db (parse (Diagres.Catalog.find "q1").Diagres.Catalog.ra) in
  let _, prof = Plan.run_profiled p in
  let text = Plan.explain prof p in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "estimates printed" true (contains "est=");
  (* after exec, no operator line may report an unknown actual count *)
  Alcotest.(check bool) "actual counts filled" false (contains "actual=?");
  Alcotest.(check bool) "hash join shown" true (contains "hash-join")

(* ---------------- Empty (dead-branch zero) ---------------- *)

let test_empty_roundtrip_and_eval () =
  let e = parse "empty(Sailor) union project[sid, sname, rating, age](Sailor)" in
  (match e with
  | A.Union (A.Empty (A.Rel "Sailor"), _) -> ()
  | _ -> Alcotest.fail "empty() should parse to Ast.Empty");
  Alcotest.(check string) "prints back" "empty(Sailor)"
    (Diagres_ra.Pretty.ascii (A.Empty (A.Rel "Sailor")));
  let r = Diagres_ra.Eval.eval db (A.Empty (A.Rel "Sailor")) in
  Alcotest.(check int) "evaluates to no rows" 0 (D.Relation.cardinality r);
  Alcotest.(check (list string)) "keeps the carrier schema"
    [ "sid"; "sname"; "rating"; "age" ]
    (D.Schema.names (D.Relation.schema r))

let test_optimize_unsat_to_empty () =
  (* color is a string column; an int literal can never match, so the
     optimizer must fold the selection to the Empty literal *)
  let e = parse "select[color = 5](Boat)" in
  (match Diagres_ra.Optimize.optimize env e with
  | A.Empty _ -> ()
  | o -> Alcotest.failf "expected Empty, got %s" (Diagres_ra.Pretty.ascii o));
  (* and a union against it erases entirely *)
  match Diagres_ra.Optimize.optimize env (A.Union (e, parse "Boat")) with
  | A.Rel "Boat" -> ()
  | o -> Alcotest.failf "expected bare Boat, got %s" (Diagres_ra.Pretty.ascii o)

let test_planned_empty () =
  Testutil.check_same_rows "planned empty"
    (Diagres_ra.Eval.eval db (parse "empty(Sailor)"))
    (eval_planned "empty(Sailor)")

(* ---------------- aggregation (beyond-FOL extension) ---------------- *)

let test_aggregate_count_per_group () =
  let module Agg = Diagres_ra.Aggregate in
  let r =
    Agg.group ~by:[ "sid" ]
      ~specs:[ { Agg.func = Agg.Count; output = "n" } ]
      D.Sample_db.reserves
  in
  (* sailor 22 has 4 reservations *)
  let row22 =
    List.find
      (fun t -> D.Tuple.get t 0 = D.Value.Int 22)
      (D.Relation.tuples r)
  in
  Alcotest.(check bool) "count 4" true (D.Tuple.get row22 1 = D.Value.Int 4);
  Alcotest.(check int) "five groups" 5 (D.Relation.cardinality r)

let test_aggregate_global () =
  let module Agg = Diagres_ra.Aggregate in
  let r =
    Agg.group ~by:[]
      ~specs:
        [ { Agg.func = Agg.Count; output = "n" };
          { Agg.func = Agg.Avg "age"; output = "avg_age" };
          { Agg.func = Agg.Max "rating"; output = "top" } ]
      D.Sample_db.sailors
  in
  Alcotest.(check int) "one row" 1 (D.Relation.cardinality r);
  let row = List.hd (D.Relation.tuples r) in
  Alcotest.(check bool) "count 10" true (D.Tuple.get row 0 = D.Value.Int 10);
  Alcotest.(check bool) "max rating 10" true (D.Tuple.get row 2 = D.Value.Int 10)

let test_aggregate_empty_input () =
  let module Agg = Diagres_ra.Aggregate in
  let empty = D.Relation.empty D.Sample_db.sailor_schema in
  let g =
    Agg.group ~by:[] ~specs:[ { Agg.func = Agg.Count; output = "n" } ] empty
  in
  Alcotest.(check int) "global over empty: one row" 1 (D.Relation.cardinality g);
  Alcotest.(check bool) "count 0" true
    (D.Tuple.get (List.hd (D.Relation.tuples g)) 0 = D.Value.Int 0);
  let per =
    Agg.group ~by:[ "rating" ]
      ~specs:[ { Agg.func = Agg.Count; output = "n" } ]
      empty
  in
  Alcotest.(check int) "grouped over empty: no rows" 0 (D.Relation.cardinality per)

let test_aggregate_having () =
  let module Agg = Diagres_ra.Aggregate in
  let grouped =
    Agg.group ~by:[ "sid" ]
      ~specs:[ { Agg.func = Agg.Count; output = "n" } ]
      D.Sample_db.reserves
  in
  let frequent =
    Agg.having
      (fun t schema -> D.Value.ge (D.Tuple.field schema "n" t) (D.Value.Int 3))
      grouped
  in
  (* sailors 22 (4 reservations) and 31 (3) *)
  Alcotest.(check int) "two heavy reservers" 2 (D.Relation.cardinality frequent)

let test_aggregate_errors () =
  let module Agg = Diagres_ra.Aggregate in
  (match
     Agg.group ~by:[ "zzz" ]
       ~specs:[ { Agg.func = Agg.Count; output = "n" } ]
       D.Sample_db.sailors
   with
  | exception Agg.Aggregate_error _ -> ()
  | _ -> Alcotest.fail "unknown grouping attr must fail");
  match Agg.group ~by:[] ~specs:[] D.Sample_db.sailors with
  | exception Agg.Aggregate_error _ -> ()
  | _ -> Alcotest.fail "empty spec must fail"

(* ---------------- parallel execution ---------------- *)

module Pool = Diagres_pool.Pool

(* Run [f] with the pool at [domains] and every parallel operator forced on:
   [vec_threshold = 0] marks every eligible operator vectorized and
   [par_threshold = 0] routes even the sample db's relations through the
   pooled vectorized batches, made small so several batches exist. *)
let forcing_parallel domains f =
  let old_size = Pool.size () in
  let old_thr = !Plan.par_threshold in
  let old_vec = !Plan.vec_threshold and old_batch = !Plan.batch_rows in
  Pool.set_size domains;
  Plan.par_threshold := 0;
  Plan.vec_threshold := 0;
  Plan.batch_rows := 3;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_size old_size;
      Plan.par_threshold := old_thr;
      Plan.vec_threshold := old_vec;
      Plan.batch_rows := old_batch)
    f

(* The tentpole differential: parallel ≡ sequential ≡ naive over random
   well-typed RA, at 1, 2, and 4 domains.  250 queries × 3 domain counts =
   750 differential runs, each against both reference engines. *)
let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel eval = sequential = naive (1/2/4 domains)"
    ~count:250
    (Testutil.arbitrary_ra ())
    (fun e ->
      let naive = Diagres_ra.Eval.eval db e in
      let sequential = Diagres_ra.Eval.eval_planned db e in
      D.Relation.same_rows naive sequential
      && List.for_all
           (fun domains ->
             forcing_parallel domains (fun () ->
                 let r = Plan.run (Planner.plan db e) in
                 D.Relation.same_rows naive r))
           [ 1; 2; 4 ])

let prop_parallel_matches_sequential_deep =
  QCheck.Test.make ~name:"parallel eval = naive (deeper trees, 3 domains)"
    ~count:80
    (Testutil.arbitrary_ra ~fuel:4 ())
    (fun e ->
      let naive = Diagres_ra.Eval.eval db e in
      forcing_parallel 3 (fun () ->
          D.Relation.same_rows naive (Plan.run (Planner.plan db e))))

let test_parallel_catalog_larger_dbs () =
  (* the five tutorial queries on generated instances big enough for real
     multi-batch vectorized joins *)
  let dbi =
    D.Generator.sailors_db ~n_sailors:400 ~n_boats:40 ~n_reserves:800 99
  in
  List.iter
    (fun entry ->
      let e = Diagres.Catalog.parsed_ra entry in
      let reference = Diagres_ra.Eval.eval dbi e in
      List.iter
        (fun domains ->
          forcing_parallel domains (fun () ->
              Plan.batch_rows := 64;
              Testutil.check_same_rows
                (Printf.sprintf "parallel %s at %d domains"
                   entry.Diagres.Catalog.id domains)
                reference
                (Plan.run (Planner.plan dbi e))))
        [ 2; 4 ])
    Diagres.Catalog.all

(* ---------------- plan cache ---------------- *)

module Plan_cache = Diagres_ra.Plan_cache

let with_fresh_cache f =
  Plan_cache.clear ();
  Plan_cache.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Plan_cache.clear ();
      Plan_cache.reset_stats ();
      Plan_cache.set_capacity 256)
    f

let test_plan_cache_hit_miss () =
  with_fresh_cache (fun () ->
      let e = parse "project[sid](select[rating = 10](Sailor))" in
      let _, c1 = Plan_cache.find_or_plan db e in
      let _, c2 = Plan_cache.find_or_plan db e in
      Alcotest.(check bool) "first is a miss" false c1;
      Alcotest.(check bool) "second is a hit" true c2;
      Alcotest.(check (pair int int)) "counters" (1, 1) (Plan_cache.stats ());
      (* the cached plan still evaluates from a clean slate *)
      let p, _ = Plan_cache.find_or_plan db e in
      let r1 = Plan.run p in
      let r2 = Plan.run p in
      Testutil.check_same_rows "re-run is stable" r1 r2)

let test_plan_cache_canonicalization () =
  with_fresh_cache (fun () ->
      (* σ[10 = rating] and σ[rating = 10]: one entry via cmp_flip *)
      let flipped =
        A.Select
          ( A.Cmp (Diagres_logic.Fol.Eq, A.Const (D.Value.Int 10), A.Attr "rating"),
            A.Rel "Sailor" )
      in
      let straight =
        A.Select
          ( A.Cmp (Diagres_logic.Fol.Eq, A.Attr "rating", A.Const (D.Value.Int 10)),
            A.Rel "Sailor" )
      in
      let _, c1 = Plan_cache.find_or_plan db flipped in
      let _, c2 = Plan_cache.find_or_plan db straight in
      Alcotest.(check bool) "flipped comparison shares the entry" true
        (not c1 && c2);
      (* and the commuted conjunction too *)
      let conj a b = A.Select (A.And (a, b), A.Rel "Sailor") in
      let p1 = A.Cmp (Diagres_logic.Fol.Gt, A.Attr "rating", A.Const (D.Value.Int 5)) in
      let p2 = A.Cmp (Diagres_logic.Fol.Lt, A.Attr "sid", A.Const (D.Value.Int 40)) in
      let _, c3 = Plan_cache.find_or_plan db (conj p1 p2) in
      let _, c4 = Plan_cache.find_or_plan db (conj p2 p1) in
      Alcotest.(check bool) "commuted conjunction shares the entry" true
        (not c3 && c4))

let test_plan_cache_stamp_invalidation () =
  with_fresh_cache (fun () ->
      let e = parse "select[rating > 7](Sailor)" in
      let _, c1 = Plan_cache.find_or_plan db e in
      (* the same schema under the same names, but a rebuilt relation:
         the database stamp changes, so reuse would be unsound *)
      let db2 =
        D.Database.of_list
          (List.map
             (fun (n, r) ->
               (n, D.Relation.of_tuples (D.Relation.schema r) (D.Relation.tuples r)))
             (D.Database.relations db))
      in
      let _, c2 = Plan_cache.find_or_plan db2 e in
      let _, c3 = Plan_cache.find_or_plan db e in
      Alcotest.(check bool) "rebuilt database misses" false (c1 || c2);
      Alcotest.(check bool) "original still cached" true c3)

let test_plan_cache_lru_eviction () =
  with_fresh_cache (fun () ->
      Plan_cache.set_capacity 2;
      let q n = parse (Printf.sprintf "select[rating = %d](Sailor)" n) in
      ignore (Plan_cache.find_or_plan db (q 1));
      ignore (Plan_cache.find_or_plan db (q 2));
      ignore (Plan_cache.find_or_plan db (q 1));  (* touch 1: now 2 is LRU *)
      ignore (Plan_cache.find_or_plan db (q 3));  (* evicts 2 *)
      Alcotest.(check int) "capacity respected" 2 (Plan_cache.length ());
      let _, hit1 = Plan_cache.find_or_plan db (q 1) in
      Alcotest.(check bool) "recently-used entry survives" true hit1;
      (* q2 was evicted; looking it up is a miss that now evicts q3 *)
      let _, hit2 = Plan_cache.find_or_plan db (q 2) in
      Alcotest.(check bool) "least-recently-used entry evicted" false hit2;
      (* shrinking the capacity evicts immediately, and counts it *)
      let evictions () =
        Diagres_telemetry.Telemetry.counter_named "plan_cache.evictions"
      in
      let before = evictions () in
      Plan_cache.set_capacity 1;
      Alcotest.(check int) "shrink evicts" 1 (Plan_cache.length ());
      Alcotest.(check int) "shrink counts its eviction" (before + 1)
        (evictions ()))

(* ---------------- pretty / tree ---------------- *)

let test_unicode_pretty () =
  let s = Diagres_ra.Pretty.unicode (parse "project[sid](select[rating = 10](Sailor))") in
  Alcotest.(check bool) "has pi" true (String.length s > 0 && String.sub s 0 2 = "\207\128")

let test_tree_render () =
  let t = Diagres_ra.Pretty.tree (parse "Sailor join Reserves") in
  Alcotest.(check bool) "three lines" true
    (List.length (String.split_on_char '\n' (String.trim t)) = 3)

let test_ast_stats () =
  let e = parse "project[sid](Sailor join Reserves)" in
  Alcotest.(check int) "size" 4 (A.size e);
  Alcotest.(check (list string)) "bases" [ "Sailor"; "Reserves" ]
    (A.base_relations e)

let () =
  Alcotest.run "ra"
    [
      ( "parser",
        [ Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Testutil.qtest prop_parse_print_roundtrip ] );
      ( "typecheck",
        [ Alcotest.test_case "infer" `Quick test_typecheck_infer;
          Alcotest.test_case "errors" `Quick test_typecheck_errors ] );
      ( "eval",
        [ Alcotest.test_case "select/project" `Quick test_eval_select_project;
          Alcotest.test_case "join (q1)" `Quick test_eval_join_q1;
          Alcotest.test_case "division (q3)" `Quick test_eval_division_q3;
          Alcotest.test_case "set ops (q2)" `Quick test_eval_setops_q2;
          Alcotest.test_case "theta join (q5)" `Quick test_eval_theta_join;
          Alcotest.test_case "product" `Quick test_eval_product;
          Alcotest.test_case "nullary projection" `Quick
            test_eval_nullary_projection ] );
      ( "optimizer",
        [ Testutil.qtest prop_optimize_preserves_semantics;
          Testutil.qtest prop_optimize_idempotent;
          Alcotest.test_case "pushdown" `Quick test_optimize_pushdown;
          Alcotest.test_case "cascades" `Quick test_optimize_cascades;
          Alcotest.test_case "identity projection" `Quick
            test_optimize_identity_projection;
          Alcotest.test_case "unsat selection folds to empty" `Quick
            test_optimize_unsat_to_empty ] );
      ( "planner",
        [ Testutil.qtest prop_planned_matches_naive;
          Testutil.qtest prop_planned_matches_naive_deep;
          Alcotest.test_case "catalog differential" `Quick test_planned_catalog;
          Alcotest.test_case "theta join becomes hash join" `Quick
            test_planner_extracts_hash_join;
          Alcotest.test_case "pure product stays nested-loop" `Quick
            test_planner_pure_product_stays_nl;
          Alcotest.test_case "shared subtree evaluated once" `Quick
            test_planner_shared_subtree_evaluated_once;
          Alcotest.test_case "explain shows est and actual" `Quick
            test_planner_explain_counts ] );
      ( "parallel",
        [ Testutil.qtest prop_parallel_matches_sequential;
          Testutil.qtest prop_parallel_matches_sequential_deep;
          Alcotest.test_case "catalog on larger instances" `Quick
            test_parallel_catalog_larger_dbs ] );
      ( "plan cache",
        [ Alcotest.test_case "hit/miss counters" `Quick
            test_plan_cache_hit_miss;
          Alcotest.test_case "canonicalization" `Quick
            test_plan_cache_canonicalization;
          Alcotest.test_case "stamp invalidation" `Quick
            test_plan_cache_stamp_invalidation;
          Alcotest.test_case "LRU eviction" `Quick
            test_plan_cache_lru_eviction ] );
      ( "empty",
        [ Alcotest.test_case "parse/print/eval" `Quick
            test_empty_roundtrip_and_eval;
          Alcotest.test_case "planned" `Quick test_planned_empty ] );
      ( "aggregate",
        [ Alcotest.test_case "count per group" `Quick
            test_aggregate_count_per_group;
          Alcotest.test_case "global" `Quick test_aggregate_global;
          Alcotest.test_case "empty input" `Quick test_aggregate_empty_input;
          Alcotest.test_case "having" `Quick test_aggregate_having;
          Alcotest.test_case "errors" `Quick test_aggregate_errors ] );
      ( "pretty",
        [ Alcotest.test_case "unicode" `Quick test_unicode_pretty;
          Alcotest.test_case "tree" `Quick test_tree_render;
          Alcotest.test_case "stats" `Quick test_ast_stats ] );
    ]
