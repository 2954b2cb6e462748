(* Tests for non-recursive Datalog with stratified negation. *)

module A = Diagres_datalog.Ast
module D = Diagres_data

let db = Testutil.db
let schemas = Testutil.schemas
let parse = Diagres_datalog.Parser.parse

let q3_src =
  "missing(S) :- Sailor(S, N, R, Ag), Boat(B, BN, 'red'), not res2(S, B).\n\
   res2(S, B) :- Reserves(S, B, Dy).\n\
   q3(S) :- Sailor(S, N, R, Ag), not missing(S)."

(* ---------------- parser ---------------- *)

let test_parse () =
  let p = parse q3_src in
  Alcotest.(check int) "3 rules" 3 (List.length p);
  Alcotest.(check (list string)) "idb" [ "missing"; "q3"; "res2" ]
    (A.idb_preds p)

let test_parse_conditions () =
  let p = parse "older(X, Y) :- Sailor(X, N1, R1, A1), Sailor(Y, N2, R2, A2), A1 > A2." in
  match (List.hd p).A.body with
  | [ A.Pos _; A.Pos _; A.Cond (Diagres_logic.Fol.Gt, A.Var "A1", A.Var "A2") ] -> ()
  | _ -> Alcotest.fail "condition literal"

let test_parse_print_roundtrip () =
  let p = parse q3_src in
  Alcotest.(check bool) "roundtrip" true (parse (A.to_string p) = p)

let test_parse_errors () =
  let fails s =
    match parse s with
    | exception Diagres_datalog.Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "should not parse: %s" s
  in
  fails "q(X) :- Sailor(X.";
  fails "q(X) Sailor(X).";
  fails "q() :- Sailor(X)."

(* ---------------- checks ---------------- *)

let test_check_recursion () =
  let p = parse "a(X) :- b(X).\nb(X) :- a(X)." in
  match Diagres_datalog.Check.check_program schemas p with
  | exception Diagres_datalog.Check.Check_error _ -> ()
  | _ -> Alcotest.fail "recursion must be rejected"

let test_check_safety () =
  let fails src =
    match Diagres_datalog.Check.check_program schemas (parse src) with
    | exception Diagres_datalog.Check.Check_error _ -> ()
    | _ -> Alcotest.failf "should be unsafe: %s" src
  in
  (* head var not bound *)
  fails "q(X, Y) :- Sailor(X, N, R, A).";
  (* negated var not bound *)
  fails "q(X) :- Sailor(X, N, R, A), not Reserves(X, B, D2), B > 1.";
  (* condition var not bound positively *)
  fails "q(X) :- Sailor(X, N, R, A), Z > 1."

let test_check_arity () =
  match Diagres_datalog.Check.check_program schemas (parse "q(X) :- Sailor(X).") with
  | exception Diagres_datalog.Check.Check_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch must be rejected"

let test_check_undefined () =
  match Diagres_datalog.Check.check_program schemas (parse "q(X) :- mystery(X).") with
  | exception Diagres_datalog.Check.Check_error _ -> ()
  | _ -> Alcotest.fail "undefined predicate must be rejected"

let test_strata () =
  let p = parse q3_src in
  let strata = Diagres_datalog.Check.strata p in
  Alcotest.(check int) "res2 stratum" 0 (List.assoc "res2" strata);
  Alcotest.(check int) "missing stratum" 1 (List.assoc "missing" strata);
  Alcotest.(check int) "q3 stratum" 2 (List.assoc "q3" strata)

let test_eval_order () =
  let p = parse q3_src in
  let order = Diagres_datalog.Check.eval_order p in
  let pos x = Option.get (List.find_index (( = ) x) order) in
  Alcotest.(check bool) "res2 before missing" true (pos "res2" < pos "missing");
  Alcotest.(check bool) "missing before q3" true (pos "missing" < pos "q3")

(* ---------------- evaluation ---------------- *)

let test_eval_q3 () =
  Testutil.check_same_rows "q3 datalog"
    (Testutil.sids D.Sample_db.q3_expected_sids)
    (Diagres_datalog.Eval.query db (parse q3_src) ~goal:"q3")

let test_eval_union_rules () =
  let p =
    parse
      "q4(S) :- Reserves(S, B, D2), Boat(B, N, 'red').\n\
       q4(S) :- Reserves(S, B, D2), Boat(B, N, 'green')."
  in
  Testutil.check_same_rows "q4 via two rules"
    (Testutil.sids D.Sample_db.q4_expected_sids)
    (Diagres_datalog.Eval.query db p ~goal:"q4")

let test_eval_constants_in_head () =
  let p = parse "flag('hi', S) :- Sailor(S, N, R, A), R = 10." in
  let r = Diagres_datalog.Eval.query db p ~goal:"flag" in
  Alcotest.(check int) "two rows" 2 (D.Relation.cardinality r)

let test_eval_condition () =
  let p = parse "old(S) :- Sailor(S, N, R, A), A > 50.0." in
  Testutil.check_same_rows "old sailors"
    (Testutil.sids [ 31; 95 ])
    (Diagres_datalog.Eval.query db p ~goal:"old")

let prop_datalog_vs_ra =
  QCheck.Test.make ~name:"datalog eval = RA unfolding on random DBs"
    ~count:25 QCheck.small_int
    (fun seed ->
      let rdb = Diagres_data.Generator.sailors_db ~n_sailors:6 ~n_boats:3 ~n_reserves:10 seed in
      let rschemas =
        List.map
          (fun (n, r) -> (n, D.Relation.schema r))
          (D.Database.relations rdb)
      in
      let p = parse q3_src in
      let direct = Diagres_datalog.Eval.query rdb p ~goal:"q3" in
      let via_ra =
        Diagres_ra.Eval.eval rdb (Diagres_datalog.To_drc.to_ra rschemas p ~goal:"q3")
      in
      D.Relation.same_rows direct via_ra)

(* ---------------- unfolding ---------------- *)

let test_unfold_to_drc () =
  let p = parse q3_src in
  let d = Diagres_datalog.To_drc.query schemas p ~goal:"q3" in
  Testutil.check_same_rows "unfolded drc"
    (Testutil.sids D.Sample_db.q3_expected_sids)
    (Diagres_rc.Drc_to_ra.eval db d)

let test_unfold_safe_range () =
  let p = parse q3_src in
  let d = Diagres_datalog.To_drc.query schemas p ~goal:"q3" in
  Alcotest.(check bool) "unfolding is safe-range" true
    (Diagres_rc.Safety.safe_query d)

let test_stats () =
  let rules, occs, repeats = A.stats (parse q3_src) in
  Alcotest.(check int) "rules" 3 rules;
  Alcotest.(check int) "occurrences" 6 occs;
  Alcotest.(check bool) "repeats > 0" true (repeats > 0)

(* ---------------- naive oracle ---------------- *)

(* The one-pass engine against the naive active-domain reading of its DRC
   unfolding, on the catalog programs and generated ones, at 1 and 4
   domains. *)
let check_eval_vs_naive_drc programs =
  let module Pool = Diagres_pool.Pool in
  let dbs = db :: Testutil.random_dbs 3 in
  let old = Pool.size () in
  Fun.protect ~finally:(fun () -> Pool.set_size old) @@ fun () ->
  List.iter
    (fun (name, goal, p) ->
      List.iteri
        (fun i rdb ->
          let rschemas =
            List.map
              (fun (n, r) -> (n, D.Relation.schema r))
              (D.Database.relations rdb)
          in
          let expected =
            Diagres_rc.Drc.eval_naive rdb
              (Diagres_datalog.To_drc.query rschemas p ~goal)
          in
          List.iter
            (fun n ->
              Pool.set_size n;
              Testutil.check_same_rows
                (Printf.sprintf "%s (db %d, %d domains): %s" name i n
                   (A.to_string p))
                expected
                (Diagres_datalog.Eval.query rdb p ~goal))
            [ 1; 4 ])
        dbs)
    programs

let test_catalog_vs_naive_drc () =
  check_eval_vs_naive_drc
    (List.map
       (fun e ->
         let id = e.Diagres.Catalog.id in
         (id, id, Diagres.Catalog.parsed_datalog e))
       Diagres.Catalog.all)

let test_generated_vs_naive_drc () =
  let st = Random.State.make [| 21 |] in
  check_eval_vs_naive_drc
    (List.init 50 (fun i ->
         (Printf.sprintf "qgen %d" i, "q", Diagres.Qgen.gen_datalog st schemas)))

let () =
  Alcotest.run "datalog"
    [
      ( "parser",
        [ Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "conditions" `Quick test_parse_conditions;
          Alcotest.test_case "print roundtrip" `Quick
            test_parse_print_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors ] );
      ( "checks",
        [ Alcotest.test_case "recursion" `Quick test_check_recursion;
          Alcotest.test_case "safety" `Quick test_check_safety;
          Alcotest.test_case "arity" `Quick test_check_arity;
          Alcotest.test_case "undefined" `Quick test_check_undefined;
          Alcotest.test_case "strata" `Quick test_strata;
          Alcotest.test_case "eval order" `Quick test_eval_order ] );
      ( "eval",
        [ Alcotest.test_case "q3" `Quick test_eval_q3;
          Alcotest.test_case "union rules" `Quick test_eval_union_rules;
          Alcotest.test_case "constants in head" `Quick
            test_eval_constants_in_head;
          Alcotest.test_case "conditions" `Quick test_eval_condition;
          Testutil.qtest prop_datalog_vs_ra ] );
      ( "unfold",
        [ Alcotest.test_case "to drc" `Quick test_unfold_to_drc;
          Alcotest.test_case "safe range" `Quick test_unfold_safe_range;
          Alcotest.test_case "stats" `Quick test_stats ] );
      ( "oracle",
        [ Alcotest.test_case "catalog = naive DRC" `Quick
            test_catalog_vs_naive_drc;
          Alcotest.test_case "generated = naive DRC" `Quick
            test_generated_vs_naive_drc ] );
    ]
