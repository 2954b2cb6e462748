(* Table-driven diagnostics suite: every row is (name, thunk, expected
   error code, expected message/hint substring).  Covers parse errors from
   all five parsers, name resolution with did-you-mean suggestions,
   cross-type comparisons, safety violations, malformed CSV, and the CLI
   dispatch errors — plus the exit-code contract, the outermost
   catch-all net, and error propagation across layers (a diagnostic
   raised in a pool worker, a view-maintenance round or a translator
   surfaces as if raised inline). *)

module D = Diagres_data
module L = Diagres.Languages
module P = Diagres.Pipeline
module Diag = Diagres_diag.Diag

let db = Testutil.db

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_diag name code sub f =
  match f () with
  | _ ->
    Alcotest.failf "%s: expected diagnostic %s, but no error was raised" name
      code
  | exception Diag.Error d ->
    Alcotest.(check string) (name ^ ": code") code d.Diag.code;
    let full = String.concat " " (d.Diag.message :: d.Diag.hints) in
    if not (contains full sub) then
      Alcotest.failf "%s: expected %S in message %S" name sub full
  | exception exn ->
    Alcotest.failf "%s: expected %s, got exception %s" name code
      (Printexc.to_string exn)

(* run a query source through parse + eval, the CLI's path *)
let run lang src () = ignore (L.eval db (L.parse lang src))

(* ------------------------------------------------------------------ *)
(* Parse errors, one per parser.                                       *)

let parse_cases =
  [ ("sql parse", L.Sql, "SELECT FROM Sailor s", "E-SQL-PARSE-001");
    ("ra parse", L.Ra, "project[sid](", "E-RA-PARSE-001");
    ("trc parse", L.Trc, "{ s.sid | s in }", "E-TRC-PARSE-001");
    ("drc parse", L.Drc, "{ x | Sailor(x, }", "E-DRC-PARSE-001");
    ("datalog parse", L.Datalog, "q(X) :-", "E-DATALOG-PARSE-001");
    ("datalog empty", L.Datalog, "", "E-DATALOG-PARSE-001") ]

let test_parse_errors () =
  List.iter
    (fun (name, lang, src, code) ->
      expect_diag name code "syntax error" (fun () ->
          ignore (L.parse lang src)))
    parse_cases

(* ------------------------------------------------------------------ *)
(* Resolution, typing, safety: (name, lang, source, code, substring).  *)

let query_cases =
  [ (* SQL name resolution, with suggestions *)
    ( "sql unknown table", L.Sql, "SELECT s.sid FROM Sailors s",
      "E-SQL-RESOLVE-001", "Sailor" );
    ( "sql duplicate alias", L.Sql, "SELECT s.sid FROM Sailor s, Reserves s",
      "E-SQL-RESOLVE-002", "s" );
    ( "sql unknown alias", L.Sql, "SELECT x.sid FROM Sailor s",
      "E-SQL-RESOLVE-003", "x" );
    ( "sql unknown column", L.Sql, "SELECT s.snme FROM Sailor s",
      "E-SQL-RESOLVE-004", "sname" );
    ( "sql unknown bare column", L.Sql, "SELECT snme FROM Sailor s",
      "E-SQL-RESOLVE-005", "sname" );
    ( "sql ambiguous column", L.Sql, "SELECT sid FROM Sailor s, Reserves r",
      "E-SQL-RESOLVE-006", "ambiguous" );
    ( "sql IN arity", L.Sql,
      "SELECT s.sid FROM Sailor s WHERE s.sid IN (SELECT r.sid, r.bid FROM \
       Reserves r)",
      "E-SQL-RESOLVE-007", "" );
    (* cross-type comparisons: =, <, and a join predicate *)
    ( "sql cross-type =", L.Sql,
      "SELECT s.sid FROM Sailor s WHERE s.age = 'old'", "E-SQL-TYPE-001",
      "incompatible" );
    ( "sql cross-type <", L.Sql,
      "SELECT s.sid FROM Sailor s WHERE s.age < 'old'", "E-SQL-TYPE-001",
      "incompatible" );
    ( "sql cross-type join", L.Sql,
      "SELECT s.sid FROM Sailor s, Boat b WHERE s.rating = b.bname",
      "E-SQL-TYPE-001", "incompatible" );
    (* RA *)
    ( "ra unknown relation", L.Ra, "select[color = 'red'](Boats)",
      "E-RA-TYPE-001", "Boat" );
    ("ra unknown attribute", L.Ra, "project[sidd](Sailor)", "E-RA-TYPE-002",
     "sid");
    ( "ra set-op mismatch", L.Ra, "Sailor union Boat", "E-RA-TYPE-005", "" );
    ( "ra cross-type =", L.Ra, "select[age = 'old'](Sailor)", "E-RA-TYPE-008",
      "incompatible" );
    ( "ra cross-type <", L.Ra, "select[age < 'old'](Sailor)", "E-RA-TYPE-008",
      "incompatible" );
    ( "ra cross-type theta join", L.Ra, "Sailor join[rating = bname] Boat",
      "E-RA-TYPE-008", "incompatible" );
    (* TRC *)
    ( "trc unknown relation", L.Trc, "{ s.sid | s in Sailors : true }",
      "E-TRC-TYPE-001", "Sailor" );
    ( "trc redeclared variable", L.Trc,
      "{ s.sid | s in Sailor : exists s in Boat (true) }", "E-TRC-TYPE-002",
      "s" );
    ( "trc unbound variable", L.Trc, "{ x.sid | s in Sailor : true }",
      "E-TRC-TYPE-003", "x" );
    ( "trc unknown attribute", L.Trc, "{ s.sidd | s in Sailor : true }",
      "E-TRC-TYPE-004", "sid" );
    ( "trc cross-type =", L.Trc, "{ s.sid | s in Sailor : s.age = 'old' }",
      "E-TRC-TYPE-005", "incompatible" );
    ( "trc cross-type join", L.Trc,
      "{ s.sid | s in Sailor : exists b in Boat (s.rating = b.bname) }",
      "E-TRC-TYPE-005", "incompatible" );
    (* DRC *)
    ( "drc duplicate head var", L.Drc,
      "{ x, x | exists n, r, a (Sailor(x, n, r, a)) }", "E-DRC-TYPE-001",
      "x" );
    ( "drc head/free mismatch", L.Drc,
      "{ x, y | exists n, r, a (Sailor(x, n, r, a)) }", "E-DRC-TYPE-002",
      "y" );
    ( "drc unknown relation", L.Drc,
      "{ x | exists n, r, a (Sailors(x, n, r, a)) }", "E-DRC-TYPE-003",
      "Sailor" );
    ( "drc arity", L.Drc, "{ x | exists n (Sailor(x, n)) }", "E-DRC-TYPE-004",
      "" );
    (* Datalog *)
    ( "datalog undefined predicate", L.Datalog,
      "q(S) :- Sailr(S, N, R, A).", "E-DLG-CHECK-001", "Sailor" );
    ( "datalog arity", L.Datalog, "q(S) :- Sailor(S, N).", "E-DLG-CHECK-002",
      "" );
    ( "datalog unsafe head", L.Datalog, "q(S, T) :- Sailor(S, N, R, A).",
      "E-DLG-CHECK-003", "T" );
    ( "datalog unsafe negation", L.Datalog,
      "q(S) :- Sailor(S, N, R, A), not Reserves(S, B, Dy).",
      "E-DLG-CHECK-003", "" );
    ( "datalog recursion", L.Datalog,
      "q(S) :- Sailor(S, N, R, A), q(S).", "E-DLG-CHECK-004", "recursion" ) ]

let test_query_errors () =
  List.iter
    (fun (name, lang, src, code, sub) ->
      expect_diag name code sub (run lang src))
    query_cases

(* ------------------------------------------------------------------ *)
(* Data layer: malformed CSV.                                          *)

let test_csv_errors () =
  expect_diag "csv empty" "E-CSV-001" "empty" (fun () ->
      ignore (D.Csv.relation_of_string ~name:"t.csv" ""));
  expect_diag "csv ragged row" "E-CSV-002" "2 fields" (fun () ->
      ignore
        (D.Csv.relation_of_string ~name:"t.csv"
           "sid:int,sname:string,rating:int,age:float\n1,a,7,30.0\n2,b\n"));
  expect_diag "csv unterminated quote" "E-CSV-003" "quote" (fun () ->
      ignore
        (D.Csv.relation_of_string ~name:"t.csv" "a:string,b:string\n1,\"x\n"))

(* ------------------------------------------------------------------ *)
(* CLI dispatch.                                                       *)

let test_cli_errors () =
  expect_diag "unknown language" "E-CLI-LANG-001" "sql" (fun () ->
      ignore (L.of_name "sq"));
  expect_diag "unknown formalism" "E-CLI-FORMALISM-001" "queryvis" (fun () ->
      ignore (P.formalism_of_name "querivis"));
  expect_diag "translate to datalog" "E-CLI-TARGET-001" "can only translate"
    (fun () ->
      ignore
        (P.translate_text db
           (L.parse L.Sql "SELECT s.sid FROM Sailor s")
           L.Datalog))

(* ------------------------------------------------------------------ *)
(* Exit-code contract and the catch-all net.                           *)

let test_exit_codes () =
  let check phase n =
    Alcotest.(check int)
      (Diag.phase_name phase ^ " exit code")
      n
      (Diag.exit_code (Diag.make ~code:"E-TEST" ~phase "x"))
  in
  check Diag.Resolve 1;
  check Diag.Parse 2;
  check Diag.Type 3;
  check Diag.Safety 3;
  check Diag.Data 4;
  check Diag.Eval 5;
  check Diag.Internal 70

let test_capture_all () =
  (match Diagres.Errors.capture_all (fun () -> raise Not_found) with
  | Ok _ -> Alcotest.fail "capture_all let an exception through"
  | Error d ->
    Alcotest.(check string) "internal code" "E-INTERNAL-001" d.Diag.code;
    Alcotest.(check int) "internal exit" 70 (Diag.exit_code d));
  match Diagres.Errors.capture_all (fun () -> 42) with
  | Ok n -> Alcotest.(check int) "passthrough" 42 n
  | Error _ -> Alcotest.fail "capture_all failed a successful thunk"

(* ------------------------------------------------------------------ *)
(* Error propagation across layers.                                    *)

module Plan = Diagres_ra.Plan
module Pool = Diagres_pool.Pool

(* [f] must end in [d]'s code and exit status under the outermost net,
   exactly as raising [d] inline does — never as an internal error. *)
let check_propagates what (d : Diag.t) f =
  let outcome g =
    match Diagres.Errors.capture_all g with
    | Ok _ -> Alcotest.failf "%s: no diagnostic surfaced" what
    | Error e -> (e.Diag.code, Diag.exit_code e)
  in
  let inline = outcome (fun () -> raise (Diag.Error d)) in
  let layered = outcome f in
  Alcotest.(check (pair string int)) what inline layered;
  Alcotest.(check bool) (what ^ ": not internal") false
    (fst layered = "E-INTERNAL-001")

let eval_diag = Diag.make ~code:"E-TEST-EVAL-001" ~phase:Diag.Eval "boom"

(* a compiled predicate that raises [eval_diag] on the tuple [bad] *)
let raising_pred bad : Plan.pred =
  { Plan.display = "raises";
    holds =
      (fun t ->
        if D.Tuple.compare t bad = 0 then raise (Diag.Error eval_diag);
        true);
    ast = Diagres_ra.Ast.Ptrue }

let with_domains n f =
  let old = Pool.size () and old_par = !Plan.par_threshold in
  Pool.set_size n;
  Plan.par_threshold := 0;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_size old;
      Plan.par_threshold := old_par)
    f

let test_diag_in_pool_task () =
  with_domains 4 @@ fun () ->
  check_propagates "Pool.run_all task" eval_diag (fun () ->
      Pool.run_all
        (Array.init 8 (fun i () ->
             if i = 5 then raise (Diag.Error eval_diag) else i)));
  (* the same through a plan: the nested-loop join runs on the calling
     domain at any pool size and meets the raising predicate there *)
  let scan name =
    let r = D.Database.find name db in
    Plan.mk (Plan.Scan (name, r)) (D.Relation.schema r) 0. [||]
  in
  let sailors = scan "Sailor" and boats = scan "Boat" in
  let bad =
    D.Tuple.concat
      (List.hd (D.Relation.tuples (D.Database.find "Sailor" db)))
      (List.hd (D.Relation.tuples (D.Database.find "Boat" db)))
  in
  let join =
    Plan.mk
      (Plan.Nl_join (Some (raising_pred bad), sailors, boats))
      (sailors.Plan.schema @ boats.Plan.schema) 0. [||]
  in
  check_propagates "nested-loop join" eval_diag (fun () ->
      Plan.run join)

(* A view whose filter raises on one inserted sailor: the diagnostic
   leaves the maintenance round of [Views.update] unchanged. *)
let test_diag_in_maintenance () =
  let module V = Diagres.Views in
  let sailor = D.Database.find "Sailor" db in
  let schema = D.Relation.schema sailor in
  let bad = D.Value.[| Int 999; String "Zed"; Int 5; Float 30. |] in
  let scan = Plan.mk (Plan.Scan ("Sailor", sailor)) schema 0. [||] in
  let plan = Plan.mk (Plan.Filter (raising_pred bad, scan)) schema 0. [||] in
  let reg = V.create db in
  let v = V.register reg ~name:"all" ~lang:L.Ra ~source:"Sailor" in
  reg.V.views <-
    [ ("boom", { v with V.plan; delta = Diagres_ra.Delta.init plan }) ];
  check_propagates "Views.update maintenance round" eval_diag (fun () ->
      V.update reg
        [ ("Sailor", D.Relation.of_tuples schema [ bad ], D.Relation.empty schema)
        ])

(* Translator diagnostics reached through [Languages.to_ra]: parsing
   succeeds, lowering to RA raises. *)
let test_diag_in_translator () =
  let schemas = D.Sample_db.schemas in
  List.iter
    (fun (what, lang, src, code) ->
      let q = L.parse lang src in
      match Diagres.Errors.capture_all (fun () -> L.to_ra schemas q) with
      | Ok _ -> Alcotest.failf "%s: no diagnostic surfaced" what
      | Error d ->
        Alcotest.(check string) (what ^ ": code") code d.Diag.code;
        check_propagates what d (fun () -> L.to_ra schemas q))
    [ ( "sql resolve", L.Sql, "SELECT s.sid FROM Sailors s",
        "E-SQL-RESOLVE-001" );
      ( "trc type", L.Trc, "{ s.sid | s in Sailor : s.rating > 'x' }",
        "E-TRC-TYPE-005" );
      ( "datalog safety", L.Datalog,
        "q(X) :- Sailor(X, N, R, A), not Boat(Y, B, C).", "E-DLG-CHECK-003" ) ]

(* Bodies that fold to a constant false translate to the empty relation
   with the head's schema: each registers as a view, and the view and the
   direct evaluation both hold 0 rows. *)
let constant_false_cases =
  [ (L.Sql, "SELECT s.sid FROM Sailor s WHERE 1 = 2");
    (L.Trc, "{ s.sid | s in Sailor : 1 = 2 }");
    (L.Drc, "{ x | exists n, r, a (Sailor(x, n, r, a)) & 1 = 2 }");
    (L.Datalog, "q(S) :- Sailor(S, N, R, A), 1 = 2.") ]

let test_constant_false_bodies () =
  let module V = Diagres.Views in
  List.iter
    (fun (lang, src) ->
      let what = L.name lang ^ ": " ^ src in
      let q = L.parse lang src in
      (match L.to_ra D.Sample_db.schemas q with
      | Diagres_ra.Ast.Empty _ as e ->
        Alcotest.(check int) (what ^ ": arity") 1
          (D.Schema.arity (Diagres_ra.Typecheck.infer_db db e))
      | e ->
        Alcotest.failf "%s: translated to %s, not empty(...)" what
          (Diagres_ra.Pretty.ascii e));
      let reg = V.create db in
      let v = V.register reg ~name:"v" ~lang ~source:src in
      Alcotest.(check int) (what ^ ": view rows") 0
        (D.Relation.cardinality (V.result v));
      Alcotest.(check int) (what ^ ": eval rows") 0
        (D.Relation.cardinality (L.eval db q)))
    constant_false_cases;
  (* with an empty head, true is the 0-ary unit and false the 0-ary empty
     relation *)
  let boolean src rows =
    let e = L.to_ra D.Sample_db.schemas (L.parse L.Drc src) in
    Alcotest.(check int) (src ^ ": rows") rows
      (D.Relation.cardinality (Diagres_ra.Eval.eval_planned db e));
    Alcotest.(check int) (src ^ ": arity") 0
      (D.Schema.arity (Diagres_ra.Typecheck.infer_db db e))
  in
  boolean "{ | 1 = 1 }" 1;
  boolean "{ | 1 = 2 }" 0

(* A comparison whose operand types cannot mix is a Type-phase error on
   every DRC entry point, the naive oracle included; a numeric Int-vs-Float
   comparison is not. *)
let test_drc_comparison_typing () =
  let module V = Diagres.Views in
  let src = "{ x | exists n, r, a (Sailor(x, n, r, a) & n > 5) }" in
  let q = Diagres_rc.Drc_parser.parse src in
  List.iter
    (fun (what, f) ->
      match Diagres.Errors.capture_all f with
      | Ok () -> Alcotest.failf "%s accepted %s" what src
      | Error d ->
        Alcotest.(check string) (what ^ ": code") "E-DRC-TYPE-005" d.Diag.code;
        Alcotest.(check int) (what ^ ": exit code") 3 (Diag.exit_code d))
    [ ("Languages.eval", fun () -> ignore (L.eval db (L.Q_drc q)));
      ( "Languages.to_ra",
        fun () -> ignore (L.to_ra D.Sample_db.schemas (L.Q_drc q)) );
      ( "Views.register",
        fun () ->
          ignore (V.register (V.create db) ~name:"v" ~lang:L.Drc ~source:src) );
      ("Drc.eval_naive", fun () -> ignore (Diagres_rc.Drc.eval_naive db q)) ];
  let numeric =
    Diagres_rc.Drc_parser.parse
      "{ x | exists n, r, a (Sailor(x, n, r, a) & a > 40) }"
  in
  let expected = Diagres_rc.Drc.eval_naive db numeric in
  Alcotest.(check bool) "int-vs-float answers" false
    (D.Relation.is_empty expected);
  Testutil.check_same_rows "int-vs-float planned = naive" expected
    (L.eval db (L.Q_drc numeric))

(* Datalog conditions are typed like DRC comparisons: a variable takes
   the column type of the EDB positions it occupies, or the type an IDB's
   rule heads give that column. *)
let test_datalog_comparison_typing () =
  let module V = Diagres.Views in
  let schemas = D.Sample_db.schemas in
  List.iter
    (fun src ->
      let q = L.parse L.Datalog src in
      List.iter
        (fun (what, f) ->
          match Diagres.Errors.capture_all f with
          | Ok () -> Alcotest.failf "%s accepted %s" what src
          | Error d ->
            Alcotest.(check string) (what ^ ": code") "E-DLG-TYPE-001"
              d.Diag.code;
            Alcotest.(check int) (what ^ ": exit code") 3 (Diag.exit_code d))
        [ ("Languages.eval", fun () -> ignore (L.eval db q));
          ("Languages.to_ra", fun () -> ignore (L.to_ra schemas q));
          ( "Views.register",
            fun () ->
              ignore
                (V.register (V.create db) ~name:"v" ~lang:L.Datalog ~source:src)
          );
          ("Pipeline.visualize qbe", fun () -> ignore (P.visualize schemas q P.Qbe))
        ])
    [ "q(S) :- Sailor(S, N, R, A), N > 5.";
      "p(N) :- Sailor(S, N, R, A). q(X) :- p(X), X > 5." ];
  let src = "q(S) :- Sailor(S, N, R, A), A > 30." in
  let p = Diagres_datalog.Parser.parse src in
  let expected =
    Diagres_rc.Drc.eval_naive db (Diagres_datalog.To_drc.query schemas p ~goal:"q")
  in
  Alcotest.(check bool) "int-vs-float answers" false
    (D.Relation.is_empty expected);
  Testutil.check_same_rows "int-vs-float = naive DRC" expected
    (L.eval db (L.parse L.Datalog src))

let test_suggestions () =
  Alcotest.(check (option string))
    "suggest Sailor"
    (Some "Sailor")
    (Diag.suggest ~candidates:[ "Sailor"; "Boat"; "Reserves" ] "Sailors");
  Alcotest.(check (option string))
    "no wild suggestion" None
    (Diag.suggest ~candidates:[ "Sailor"; "Boat"; "Reserves" ] "zzzzz")

(* rendered diagnostics carry a caret excerpt when source is attached *)
let test_render_caret () =
  let src = "SELECT s.sid FROM Sailors s" in
  match Diagres.Errors.capture (fun () -> run L.Sql src ()) with
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error d ->
    let d = Diag.with_source ~src_name:"<query>" ~text:src d in
    let text = Diag.render d in
    List.iter
      (fun frag ->
        if not (contains text frag) then
          Alcotest.failf "rendered diagnostic missing %S:\n%s" frag text)
      [ "E-SQL-RESOLVE-001"; "-->"; "Sailors"; "^"; "help:" ]

let () =
  Alcotest.run "errors"
    [ ( "diagnostics",
        [ Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "resolve/type/safety errors" `Quick
            test_query_errors;
          Alcotest.test_case "csv errors" `Quick test_csv_errors;
          Alcotest.test_case "cli errors" `Quick test_cli_errors;
          Alcotest.test_case "constant-false bodies" `Quick
            test_constant_false_bodies;
          Alcotest.test_case "drc comparison typing" `Quick
            test_drc_comparison_typing;
          Alcotest.test_case "datalog comparison typing" `Quick
            test_datalog_comparison_typing ] );
      ( "contract",
        [ Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "catch-all net" `Quick test_capture_all;
          Alcotest.test_case "suggestions" `Quick test_suggestions;
          Alcotest.test_case "caret rendering" `Quick test_render_caret ] );
      ( "propagation",
        [ Alcotest.test_case "pool task at 4 domains" `Quick
            test_diag_in_pool_task;
          Alcotest.test_case "view maintenance round" `Quick
            test_diag_in_maintenance;
          Alcotest.test_case "translator via to_ra" `Quick
            test_diag_in_translator ] ) ]
