(* Tests for TRC, DRC, safety analysis, and the translation hexagon. *)

module T = Diagres_rc.Trc
module Drc = Diagres_rc.Drc
module Drc_to_ra = Diagres_rc.Drc_to_ra
module F = Diagres_logic.Fol
module D = Diagres_data

let db = Testutil.db
let schemas = Testutil.schemas
let env = Testutil.env

let trc = Diagres_rc.Trc_parser.parse
let drc = Diagres_rc.Drc_parser.parse

let q1_trc =
  "{ s.sid | s in Sailor : exists r in Reserves (r.sid = s.sid and exists b \
   in Boat (b.bid = r.bid and b.color = 'red')) }"

let q3_trc =
  "{ s.sid | s in Sailor : forall b in Boat (b.color = 'red' implies exists \
   r in Reserves (r.sid = s.sid and r.bid = b.bid)) }"

(* ---------------- TRC ---------------- *)

let test_trc_parse_print_roundtrip () =
  List.iter
    (fun src ->
      let q = trc src in
      let q2 = trc (T.to_string q) in
      Alcotest.(check bool) ("roundtrip " ^ src) true (q = q2))
    [ q1_trc; q3_trc;
      "{ | s in Sailor : s.rating = 10 }";
      "{ s.sid, s.sname | s in Sailor }";
      "{ s.sid | s in Sailor : s.rating = 10 or s.rating = 9 }";
      "{ s.sid | s in Sailor : not (s.age > 30.0) and true }" ]

let test_trc_eval () =
  Testutil.check_same_rows "q1"
    (Testutil.sids D.Sample_db.q1_expected_sids)
    (T.eval db (trc q1_trc));
  Testutil.check_same_rows "q3"
    (Testutil.sids D.Sample_db.q3_expected_sids)
    (T.eval db (trc q3_trc))

let test_trc_boolean_query () =
  Alcotest.(check bool) "some sailor rated 10" true
    (T.eval_sentence db
       (T.Exists ([ ("s", "Sailor") ], T.Cmp (F.Eq, T.Field ("s", "rating"), T.Const (D.Value.Int 10)))));
  Alcotest.(check bool) "no sailor rated 99" false
    (T.eval_sentence db
       (T.Exists ([ ("s", "Sailor") ], T.Cmp (F.Eq, T.Field ("s", "rating"), T.Const (D.Value.Int 99)))))

let test_trc_typecheck_errors () =
  let fails src =
    match T.eval db (trc src) with
    | exception T.Type_error _ -> ()
    | _ -> Alcotest.failf "should not typecheck: %s" src
  in
  fails "{ s.sid | s in Nowhere }";
  fails "{ s.zzz | s in Sailor }";
  fails "{ s.sid | s in Sailor : exists s in Sailor (s.sid = s.sid) }";
  fails "{ t.sid | s in Sailor }"

let test_trc_duplicate_head_names () =
  (* both head fields named sid: output disambiguates *)
  let q = trc "{ s.sid, r.sid | s in Sailor, r in Reserves : s.sid = r.sid }" in
  let rel = T.eval db q in
  Alcotest.(check (list string)) "columns" [ "sid"; "sid_2" ]
    (D.Schema.names (D.Relation.schema rel))

let test_single_panel () =
  Alcotest.(check bool) "q1 one panel" true (T.single_panel (trc q1_trc).T.body);
  Alcotest.(check bool) "forall drawable" true (T.single_panel (trc q3_trc).T.body);
  Alcotest.(check bool) "positive or is not" false
    (T.single_panel (trc "{ s.sid | s in Sailor : s.rating = 1 or s.rating = 2 }").T.body);
  Alcotest.(check bool) "negated or is drawable" true
    (T.single_panel
       (trc "{ s.sid | s in Sailor : not (s.rating = 1 or s.rating = 2) }").T.body)

let test_panel_split_semantics () =
  let q =
    trc
      "{ s.sid | s in Sailor : exists r in Reserves (r.sid = s.sid and \
       exists b in Boat (b.bid = r.bid and (b.color = 'red' or b.color = \
       'green'))) }"
  in
  let panels = Diagres_rc.Translate.drawable_panels schemas [ q ] in
  Alcotest.(check int) "two panels" 2 (List.length panels);
  List.iter
    (fun (p : T.query) ->
      Alcotest.(check bool) "panel drawable" true (T.single_panel p.T.body))
    panels;
  let union =
    List.fold_left
      (fun acc p -> D.Relation.union acc (T.eval db p))
      (T.eval db (List.hd panels))
      (List.tl panels)
  in
  Testutil.check_same_rows "panels union = original" (T.eval db q) union

(* ---------------- DRC ---------------- *)

let test_drc_parse_eval () =
  let q =
    drc
      "{ s | exists n, rt, a (Sailor(s, n, rt, a) & exists b, d (Reserves(s, \
       b, d) & exists bn, c (Boat(b, bn, c) & c = 'red'))) }"
  in
  Testutil.check_same_rows "q1 drc"
    (Testutil.sids D.Sample_db.q1_expected_sids)
    (Drc_to_ra.eval db q)

let test_drc_typecheck () =
  let fails src =
    let q = drc src in
    match Drc.typecheck schemas q with
    | exception Drc.Type_error _ -> ()
    | _ -> Alcotest.failf "should not typecheck: %s" src
  in
  fails "{ x, y | exists n, r, a (Sailor(x, n, r, a)) }";
  fails "{ x | Sailor(x, x, x) }";
  fails "{ x | Zap(x) }";
  fails "{ x, x | Sailor(x, x, x, x) }"

let test_drc_boolean () =
  Alcotest.(check bool) "sentence true" true
    (Drc_to_ra.eval_sentence db
       (Diagres_rc.Drc_parser.parse_formula
          "exists b, n, c (Boat(b, n, c) & c = 'red')"));
  Alcotest.(check bool) "sentence false" false
    (Drc_to_ra.eval_sentence db
       (Diagres_rc.Drc_parser.parse_formula
          "exists b, n, c (Boat(b, n, c) & c = 'mauve')"))

(* ---------------- safety ---------------- *)

let test_safe_range () =
  let safe src = Diagres_rc.Safety.safe_query (drc src) in
  Alcotest.(check bool) "atom safe" true (safe "{ x | exists n, r, a (Sailor(x, n, r, a)) }");
  Alcotest.(check bool) "negation guarded" true
    (safe
       "{ x | exists n, r, a (Sailor(x, n, r, a)) & not (exists b, d \
        (Reserves(x, b, d))) }");
  Alcotest.(check bool) "bare negation unsafe" false
    (safe "{ x | not (exists n, r, a (Sailor(x, n, r, a))) }");
  Alcotest.(check bool) "comparison alone unsafe" false (safe "{ x | x > 5 }");
  Alcotest.(check bool) "const equality safe" true (safe "{ x | x = 5 }");
  Alcotest.(check bool) "eq propagation" true
    (safe "{ y | exists x (x = 5 & x = y) }");
  Alcotest.(check bool) "disjunction needs both sides" false
    (safe "{ x | x = 1 | exists y (x > y) }")

let test_safety_explanation () =
  match
    Diagres_rc.Safety.check
      (Diagres_rc.Drc_parser.parse_formula "exists y (x > y)")
  with
  | Error msg ->
    Alcotest.(check bool) "names the unrestricted variable" true
      (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected unsafe"

let test_domain_dependence () =
  (* {x | ¬Sailor-ish(x)} depends on the domain *)
  let q = drc "{ x | not (exists n, r, a (Sailor(x, n, r, a))) }" in
  match Diagres_rc.Safety.domain_dependence_witness db q with
  | Some (a0, a1) ->
    Alcotest.(check bool) "extended domain adds answers" true
      (List.length a1 > List.length a0)
  | None -> Alcotest.fail "expected a domain-dependence witness"

let test_domain_independence_of_safe () =
  let q =
    drc
      "{ x | exists n, rt, a (Sailor(x, n, rt, a) & not (exists b, d \
       (Reserves(x, b, d)))) }"
  in
  Alcotest.(check bool) "safe query is domain independent" true
    (Diagres_rc.Safety.domain_dependence_witness db q = None)

(* ---------------- translations ---------------- *)

let eval_ra e = Diagres_ra.Eval.eval db e

let test_trc_to_drc_semantics () =
  List.iter
    (fun src ->
      let q = trc src in
      let d = Diagres_rc.Translate.trc_to_drc schemas q in
      Testutil.check_same_rows ("trc→drc " ^ src) (T.eval db q)
        (Drc_to_ra.eval db d))
    [ q1_trc; q3_trc; "{ s.sid, s.age | s in Sailor : s.rating > 7 }" ]

let test_trc_to_ra_semantics () =
  (* the negation-heavy q3 runs on the tiny instance *)
  let check on_db src =
    let q = trc src in
    let e = Diagres_rc.Translate.trc_to_ra schemas q in
    Testutil.check_same_rows ("trc→ra " ^ src) (T.eval on_db q)
      (Diagres_ra.Eval.eval on_db e)
  in
  check db q1_trc;
  check Testutil.tiny_db q3_trc

let prop_ra_to_trc_roundtrip =
  QCheck.Test.make ~name:"RA → TRC panels preserve semantics" ~count:80
    (Testutil.arbitrary_ra ~fuel:3 ())
    (fun e ->
      let panels = Diagres_rc.Translate.ra_to_trc env e in
      let expected = eval_ra e in
      match panels with
      | [] -> D.Relation.is_empty expected
      | p :: ps ->
        let union =
          List.fold_left
            (fun acc q -> D.Relation.union acc (T.eval db q))
            (T.eval db p) ps
        in
        D.Relation.same_rows expected union)

let prop_ra_to_drc_roundtrip =
  QCheck.Test.make ~name:"RA → DRC preserves semantics" ~count:40
    (Testutil.arbitrary_ra ~fuel:2 ())
    (fun e ->
      (* tiny database: DRC naive evaluation enumerates the active domain *)
      let tdb = Testutil.tiny_db in
      D.Relation.same_rows
        (Diagres_ra.Eval.eval tdb e)
        (Drc.eval_naive tdb (Diagres_rc.Translate.ra_to_drc env e)))

let prop_ra_to_drc_safe =
  QCheck.Test.make ~name:"RA → DRC output is safe-range" ~count:60
    (Testutil.arbitrary_ra ~fuel:3 ())
    (fun e ->
      Diagres_rc.Safety.safe_query (Diagres_rc.Translate.ra_to_drc env e))

let prop_drc_to_ra_roundtrip =
  QCheck.Test.make ~name:"DRC (from RA) → RA preserves semantics" ~count:40
    (Testutil.arbitrary_ra ~fuel:2 ())
    (fun e ->
      (* the tiny database and the count date from the active-domain
         translation, which materialized adom^k intermediates under
         negation; CI replays the seeds that ran it out of memory *)
      let tdb = Testutil.tiny_db in
      let d = Diagres_rc.Translate.ra_to_drc env e in
      let e2 = Diagres_rc.Translate.drc_to_ra schemas d in
      D.Relation.same_rows
        (Diagres_ra.Eval.eval tdb e)
        (Diagres_ra.Eval.eval tdb e2))

let test_ra_rewrite_division () =
  let e =
    Diagres_ra.Parser.parse
      "project[sid,bid](Reserves) div project[bid](select[color='red'](Boat))"
  in
  let e2 = Diagres_rc.Ra_rewrite.eliminate_division env e in
  let rec has_div = function
    | Diagres_ra.Ast.Division _ -> true
    | Diagres_ra.Ast.Rel _ | Diagres_ra.Ast.Values _ -> false
    | Diagres_ra.Ast.Empty x | Diagres_ra.Ast.Select (_, x)
    | Diagres_ra.Ast.Project (_, x)
    | Diagres_ra.Ast.Rename (_, x) -> has_div x
    | Diagres_ra.Ast.Product (a, b) | Diagres_ra.Ast.Join (a, b)
    | Diagres_ra.Ast.Theta_join (_, a, b) | Diagres_ra.Ast.Union (a, b)
    | Diagres_ra.Ast.Inter (a, b) | Diagres_ra.Ast.Diff (a, b) ->
      has_div a || has_div b
  in
  Alcotest.(check bool) "no division left" false (has_div e2);
  Testutil.check_same_rows "division elimination" (eval_ra e) (eval_ra e2)

let prop_union_free_forms =
  QCheck.Test.make ~name:"union-free forms union to the original" ~count:60
    (Testutil.arbitrary_ra ~fuel:3 ())
    (fun e ->
      let forms = Diagres_rc.Ra_rewrite.union_free_forms env e in
      let expected = eval_ra e in
      match forms with
      | [] -> D.Relation.is_empty expected
      | f :: fs ->
        let union =
          List.fold_left
            (fun acc g -> D.Relation.union acc (eval_ra g))
            (eval_ra f) fs
        in
        D.Relation.same_rows expected union)

(* ---------------- restricted vs naive evaluation ---------------- *)

(* the differential properties for this PR's range-restricted engines: on
   the whole catalog and on random instances, the index-probing evaluators
   must agree with the full-scan / active-domain references *)

let test_trc_restricted_vs_naive () =
  let dbs = db :: Testutil.random_dbs 6 in
  List.iter
    (fun e ->
      let q = Diagres.Catalog.parsed_trc e in
      List.iteri
        (fun i rdb ->
          Testutil.check_same_rows
            (Printf.sprintf "%s trc restricted (db %d)" e.Diagres.Catalog.id i)
            (T.eval_naive rdb q) (T.eval rdb q))
        dbs)
    Diagres.Catalog.all

let test_drc_restricted_vs_naive () =
  let dbs = db :: Testutil.random_dbs 6 in
  List.iter
    (fun e ->
      let q = Diagres.Catalog.parsed_drc e in
      List.iteri
        (fun i rdb ->
          Testutil.check_same_rows
            (Printf.sprintf "%s drc restricted (db %d)" e.Diagres.Catalog.id i)
            (Drc.eval_naive rdb q) (Drc_to_ra.eval rdb q))
        dbs)
    Diagres.Catalog.all

let test_drc_catalog_analytic_size () =
  (* 3,100 tuples: large enough that enumerating the active domain for
     q3's ∀-guarded variables (instead of binding them from Boat) takes
     tens of seconds *)
  let rdb =
    D.Generator.sailors_db ~n_sailors:1000 ~n_boats:100 ~n_reserves:2000 7
  in
  List.iter
    (fun e ->
      let expected = Diagres_ra.Eval.eval rdb (Diagres.Catalog.parsed_ra e) in
      let q = Diagres.Catalog.parsed_drc e in
      Testutil.check_same_rows
        (Printf.sprintf "%s planned drc = ra at 1,000 sailors" e.Diagres.Catalog.id)
        expected
        (Diagres.Languages.eval rdb (Diagres.Languages.Q_drc q)))
    Diagres.Catalog.all

let prop_trc_restricted_vs_naive =
  QCheck.Test.make ~name:"TRC restricted = full-scan on RA-derived queries"
    ~count:40
    (Testutil.arbitrary_ra ~fuel:2 ())
    (fun e ->
      List.for_all
        (fun q -> D.Relation.same_rows (T.eval_naive db q) (T.eval db q))
        (Diagres_rc.Translate.ra_to_trc env e))

let prop_drc_restricted_vs_naive =
  QCheck.Test.make ~name:"DRC restricted = active-domain on RA-derived queries"
    ~count:30
    (Testutil.arbitrary_ra ~fuel:2 ())
    (fun e ->
      (* tiny database: the naive side enumerates the active domain *)
      let tdb = Testutil.tiny_db in
      let d = Diagres_rc.Translate.ra_to_drc env e in
      D.Relation.same_rows (Drc.eval_naive tdb d) (Drc_to_ra.eval tdb d))

(* ---------------- planned DRC ---------------- *)

(* [Languages.eval] runs DRC as [Drc_to_ra.query] planned; the naive
   active-domain evaluator is the oracle. *)

module L = Diagres.Languages
module A = Diagres_ra.Ast

let planned db q = L.eval db (L.Q_drc q)

let with_domains n f =
  let module Pool = Diagres_pool.Pool in
  let module Plan = Diagres_ra.Plan in
  let old = Pool.size () and old_par = !Plan.par_threshold in
  Pool.set_size n;
  Plan.par_threshold := (if n > 1 then 0 else old_par);
  Fun.protect
    ~finally:(fun () ->
      Pool.set_size old;
      Plan.par_threshold := old_par)
    f

(* The ∀/⇒ spelling of a ¬∃ block: ¬∃x̄(A ∧ B) ↦ ∀x̄(A ⇒ ¬B). *)
let rec forallize (f : F.t) : F.t =
  match f with
  | F.Not (F.Exists _ as g) -> (
    let rec strip xs = function F.Exists (x, h) -> strip (x :: xs) h | h -> (List.rev xs, h) in
    let xs, h = strip [] g in
    match forallize h with
    | F.And (a, b) -> F.forall_many xs (F.Implies (a, F.Not b))
    | h' -> F.forall_many xs (F.Not h'))
  | F.Not g -> F.Not (forallize g)
  | F.And (a, b) -> F.And (forallize a, forallize b)
  | F.Or (a, b) -> F.Or (forallize a, forallize b)
  | F.Exists (x, g) -> F.Exists (x, forallize g)
  | _ -> f

(* Each generated query, its ∀/⇒ spelling, and two unsafe variants: the
   negated body (every head variable ranges over the active domain, with
   the formula's constants) and a disjunction whose second branch binds
   nothing (the other branch's variables are padded with the domain). *)
let drc_variants (q : Drc.query) : (string * Drc.query) list =
  let base = [ ("as generated", q); ("forall/implies", { q with Drc.body = forallize q.Drc.body }) ] in
  match q.Drc.head with
  | [] -> base
  | h :: _ ->
    base
    @ [ ("negated (unsafe)", { q with Drc.body = F.Not q.Drc.body });
        ( "or x = x (unsafe)",
          { q with Drc.body = F.Or (q.Drc.body, F.Cmp (F.Eq, F.Var h, F.Var h)) } ) ]

let test_planned_drc_vs_naive () =
  let st = Random.State.make [| 19 |] in
  let dbs = Testutil.tiny_db :: Testutil.random_dbs 3 in
  for i = 1 to 40 do
    let q = Diagres.Qgen.gen_drc ~max_ranges:2 ~depth:2 st schemas in
    List.iter
      (fun (what, q) ->
        List.iteri
          (fun j rdb ->
            let expected = Drc.eval_naive rdb q in
            List.iter
              (fun n ->
                with_domains n @@ fun () ->
                Testutil.check_same_rows
                  (Printf.sprintf "query %d %s, db %d, %d domains: %s" i what j n
                     (Drc.to_string q))
                  expected (planned rdb q))
              [ 1; 4 ])
          dbs)
      (drc_variants q)
  done

let test_planned_drc_boolean () =
  let sentence src = Diagres_rc.Drc_parser.parse_formula src in
  let e4 =
    sentence
      "exists s, b, d (Reserves(s, b, d) & not (exists n, c (Boat(b, n, c) \
       & c = 'red')))"
  in
  let g = Diagres_diagrams.Eg_beta.of_drc e4 in
  let sentences =
    [ sentence "exists b, n, c (Boat(b, n, c) & c = 'red')";
      sentence "exists b, n, c (Boat(b, n, c) & c = 'mauve')";
      sentence "not (exists b, n, c (Boat(b, n, c) & c = 'mauve'))";
      e4;
      Diagres_diagrams.Eg_beta.to_drc g;
      Diagres_diagrams.Eg_beta.to_drc_innermost g ]
  in
  List.iter
    (fun body ->
      List.iter
        (fun rdb ->
          Alcotest.(check int)
            ("boolean " ^ F.to_string body)
            (if Drc.eval_sentence_naive rdb body then 1 else 0)
            (D.Relation.cardinality (planned rdb { Drc.head = []; body })))
        [ db; Testutil.tiny_db ])
    sentences

(* Boolean sentences planned as 0-ary queries against the naive reading:
   generated bodies closed by ∃, their negations, and the unsafe
   ∀z (φ ∨ z = z), whose z only the active domain ranges over. *)
let test_planned_sentences_vs_naive () =
  let st = Random.State.make [| 21 |] in
  let dbs = Testutil.tiny_db :: Testutil.random_dbs 3 in
  for i = 1 to 100 do
    let q = Diagres.Qgen.gen_drc ~max_ranges:2 ~depth:2 st schemas in
    let closed = F.exists_many q.Drc.head q.Drc.body in
    List.iter
      (fun (what, body) ->
        List.iteri
          (fun j rdb ->
            let expected = Drc.eval_sentence_naive rdb body in
            List.iter
              (fun n ->
                with_domains n @@ fun () ->
                Alcotest.(check bool)
                  (Printf.sprintf "sentence %d %s, db %d, %d domains: %s" i what
                     j n (F.to_string body))
                  expected
                  (Drc_to_ra.eval_sentence rdb body))
              [ 1; 4 ])
          dbs)
      [ ("closed", closed);
        ("negated", F.Not closed);
        ("forall z (phi or z = z)",
          F.Forall ("z", F.Or (closed, F.Cmp (F.Eq, F.Var "z", F.Var "z")))) ]
  done

(* The active-domain union: π of base attributes, renamed to one column,
   united. *)
let rec adom_like = function
  | A.Project ([ _ ], A.Rel _) | A.Rename ([ _ ], A.Project ([ _ ], A.Rel _)) -> true
  | A.Union (a, b) -> adom_like a && adom_like b
  | _ -> false

let rec has_adom_union (e : A.t) =
  match e with
  | A.Union (a, b) when adom_like a && adom_like b -> true
  | A.Rel _ | A.Values _ -> false
  | A.Empty x | A.Select (_, x) | A.Project (_, x) | A.Rename (_, x) -> has_adom_union x
  | A.Product (a, b) | A.Join (a, b) | A.Theta_join (_, a, b) | A.Union (a, b)
  | A.Inter (a, b) | A.Diff (a, b) | A.Division (a, b) ->
    has_adom_union a || has_adom_union b

let test_catalog_translations_range_restricted () =
  List.iter
    (fun (e : Diagres.Catalog.entry) ->
      List.iter
        (fun (lang, src) ->
          let ra = L.to_ra schemas (L.parse lang src) in
          if has_adom_union ra then
            Alcotest.failf "%s %s translation has an active-domain union: %s"
              e.Diagres.Catalog.id (L.name lang) (Diagres_ra.Pretty.ascii ra))
        [ (L.Sql, e.sql); (L.Trc, e.trc); (L.Drc, e.drc); (L.Datalog, e.datalog) ])
    Diagres.Catalog.all

let test_no_full_width_projection () =
  let module Plan = Diagres_ra.Plan in
  let e =
    L.to_ra schemas
      (L.parse L.Trc "{ t1.rating, t1.sid | t1 in Sailor : t1.rating = 70 }")
  in
  let plan = Diagres_ra.Planner.plan db e in
  Plan.fold_unique
    (fun (n : Plan.t) () ->
      match n.Plan.op with
      | Plan.Project (idx, c) ->
        if Array.length idx >= D.Schema.arity c.Plan.schema then
          Alcotest.failf "projection keeps all %d columns of its input: %s"
            (Array.length idx) (Diagres_ra.Pretty.ascii e)
      | _ -> ())
    plan ()

let () =
  Alcotest.run "rc"
    [
      ( "trc",
        [ Alcotest.test_case "parse/print roundtrip" `Quick
            test_trc_parse_print_roundtrip;
          Alcotest.test_case "eval q1/q3" `Quick test_trc_eval;
          Alcotest.test_case "boolean queries" `Quick test_trc_boolean_query;
          Alcotest.test_case "typecheck errors" `Quick
            test_trc_typecheck_errors;
          Alcotest.test_case "duplicate head names" `Quick
            test_trc_duplicate_head_names;
          Alcotest.test_case "single panel" `Quick test_single_panel;
          Alcotest.test_case "panel split semantics" `Quick
            test_panel_split_semantics ] );
      ( "drc",
        [ Alcotest.test_case "parse/eval" `Quick test_drc_parse_eval;
          Alcotest.test_case "typecheck" `Quick test_drc_typecheck;
          Alcotest.test_case "boolean" `Quick test_drc_boolean ] );
      ( "safety",
        [ Alcotest.test_case "safe range" `Quick test_safe_range;
          Alcotest.test_case "unsafe explanation" `Quick
            test_safety_explanation;
          Alcotest.test_case "domain dependence witness" `Quick
            test_domain_dependence;
          Alcotest.test_case "safe queries independent" `Quick
            test_domain_independence_of_safe ] );
      ( "translate",
        [ Alcotest.test_case "trc→drc" `Quick test_trc_to_drc_semantics;
          Alcotest.test_case "trc→ra" `Quick test_trc_to_ra_semantics;
          Alcotest.test_case "÷ elimination" `Quick test_ra_rewrite_division;
          Testutil.qtest prop_ra_to_trc_roundtrip;
          Testutil.qtest prop_ra_to_drc_roundtrip;
          Testutil.qtest prop_ra_to_drc_safe;
          Testutil.qtest prop_drc_to_ra_roundtrip;
          Testutil.qtest prop_union_free_forms ] );
      ( "restricted-vs-naive",
        [ Alcotest.test_case "trc catalog + random dbs" `Quick
            test_trc_restricted_vs_naive;
          Alcotest.test_case "drc catalog + random dbs" `Quick
            test_drc_restricted_vs_naive;
          Alcotest.test_case "drc catalog q1-q5 at 1,000 sailors" `Quick
            test_drc_catalog_analytic_size;
          Testutil.qtest prop_trc_restricted_vs_naive;
          Testutil.qtest prop_drc_restricted_vs_naive ] );
      ( "planned-drc",
        [ Alcotest.test_case "qgen queries = naive (1/4 domains)" `Quick
            test_planned_drc_vs_naive;
          Alcotest.test_case "boolean queries" `Quick test_planned_drc_boolean;
          Alcotest.test_case "boolean sentences = naive (1/4 domains)" `Quick
            test_planned_sentences_vs_naive;
          Alcotest.test_case "catalog translations: no active domain" `Quick
            test_catalog_translations_range_restricted;
          Alcotest.test_case "no full-width projection" `Quick
            test_no_full_width_projection ] );
    ]
