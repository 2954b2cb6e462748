(* Tests for propositional logic, FOL, and finite-structure evaluation. *)

module P = Diagres_logic.Prop
module F = Diagres_logic.Fol
module S = Diagres_logic.Structure

(* ---------------- Prop ---------------- *)

let test_prop_eval () =
  let f = P.Implies (P.Var "p", P.Var "q") in
  Alcotest.(check bool) "p→q under p=1,q=0" false
    (P.eval [ ("p", true); ("q", false) ] f);
  Alcotest.(check bool) "p→q under p=0" true
    (P.eval [ ("p", false); ("q", false) ] f);
  Alcotest.(check bool) "iff" true
    (P.eval [ ("p", true); ("q", true) ] (P.Iff (P.Var "p", P.Var "q")))

let test_prop_tautologies () =
  Alcotest.(check bool) "excluded middle" true
    (P.tautology (P.Or (P.Var "p", P.Not (P.Var "p"))));
  Alcotest.(check bool) "contradiction unsat" false
    (P.satisfiable (P.And (P.Var "p", P.Not (P.Var "p"))));
  Alcotest.(check bool) "peirce's law" true
    (P.tautology
       P.(Implies (Implies (Implies (Var "p", Var "q"), Var "p"), Var "p")))

let test_prop_parser () =
  let f = P.parse "(p & q) -> !r | s" in
  Alcotest.(check string) "printed" "p & q -> !r | s" (P.to_string f);
  Alcotest.check_raises "trailing"
    (P.Parse_error "trailing input at offset 2") (fun () ->
      ignore (P.parse "p q"))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"Prop: parse ∘ print = id (up to equivalence)"
    ~count:200 (Testutil.arbitrary_prop ())
    (fun f -> P.equivalent f (P.parse (P.to_string f)))

let prop_nnf_equiv =
  QCheck.Test.make ~name:"Prop: nnf preserves semantics" ~count:200
    (Testutil.arbitrary_prop ())
    (fun f -> P.equivalent f (P.nnf f))

let prop_cnf_dnf_equiv =
  QCheck.Test.make ~name:"Prop: cnf and dnf preserve semantics" ~count:100
    (Testutil.arbitrary_prop ~fuel:3 ())
    (fun f -> P.equivalent f (P.cnf f) && P.equivalent f (P.dnf f))

let prop_simplify_equiv =
  QCheck.Test.make ~name:"Prop: simplify preserves semantics" ~count:200
    (Testutil.arbitrary_prop ())
    (fun f -> P.equivalent f (P.simplify f))

let prop_truth_table_agree =
  QCheck.Test.make ~name:"truth table models ⊆ assignments" ~count:100
    (Testutil.arbitrary_prop ~fuel:3 ())
    (fun f ->
      let t = Diagres_logic.Truth_table.build f in
      List.for_all
        (fun r -> P.eval r.Diagres_logic.Truth_table.assignment f)
        (Diagres_logic.Truth_table.models t))

(* ---------------- Fol ---------------- *)

let sailor_atom =
  F.Pred ("Sailor", [ F.Var "s"; F.Var "n"; F.Var "r"; F.Var "a" ])

let test_fol_free_vars () =
  let f = F.Exists ("s", F.Exists ("n", sailor_atom)) in
  Alcotest.(check (list string)) "free" [ "a"; "r" ] (F.free_var_list f);
  Alcotest.(check bool) "sentence" true
    (F.is_sentence (F.exists_many [ "s"; "n"; "r"; "a" ] sailor_atom))

let test_fol_subst () =
  let f = F.Exists ("x", F.Cmp (F.Eq, F.Var "x", F.Var "y")) in
  let g = F.subst "y" (F.cint 5) f in
  Alcotest.(check (list string)) "no free vars" [] (F.free_var_list g);
  (* substitution does not touch bound occurrences *)
  let h = F.subst "x" (F.cint 7) f in
  Alcotest.(check bool) "bound x untouched" true (h = f)

let test_fol_existentialize () =
  let f = F.Forall ("x", F.Pred ("P", [ F.Var "x" ])) in
  match F.existentialize f with
  | F.Not (F.Exists ("x", F.Not (F.Pred ("P", _)))) -> ()
  | g -> Alcotest.failf "unexpected shape: %s" (F.to_string g)

let test_structure_eval () =
  let db = Diagres_data.Sample_db.db in
  let st = S.for_formula F.True db in
  Alcotest.(check bool) "true" true (S.eval_sentence_naive st F.True);
  (* there is a red boat *)
  let f =
    F.exists_many [ "b"; "n"; "c" ]
      (F.And
         ( F.Pred ("Boat", [ F.Var "b"; F.Var "n"; F.Var "c" ]),
           F.Cmp (F.Eq, F.Var "c", F.cstr "red") ))
  in
  let st = S.for_formula f db in
  Alcotest.(check bool) "red boat exists" true (S.eval_sentence_naive st f);
  (* no boat is named after a sailor rating (silly but false) *)
  let g =
    F.exists_many [ "b"; "n"; "c" ]
      (F.And
         ( F.Pred ("Boat", [ F.Var "b"; F.Var "n"; F.Var "c" ]),
           F.Cmp (F.Eq, F.Var "c", F.cstr "purple") ))
  in
  let st = S.for_formula g db in
  Alcotest.(check bool) "no purple boat" false (S.eval_sentence_naive st g)

let test_structure_constants_extend_universe () =
  (* x = 'mauve' is satisfiable only if 'mauve' is in the universe *)
  let db = Diagres_data.Sample_db.db in
  let f = F.Exists ("x", F.Cmp (F.Eq, F.Var "x", F.cstr "mauve")) in
  let st = S.for_formula f db in
  Alcotest.(check bool) "constant added" true (S.eval_sentence_naive st f)

let test_structure_errors () =
  let db = Diagres_data.Sample_db.db in
  let st = S.for_formula F.True db in
  Alcotest.check_raises "unbound var" (S.Eval_error "unbound variable x")
    (fun () -> ignore (S.holds_naive st [] (F.Cmp (F.Eq, F.Var "x", F.cint 1))));
  Alcotest.check_raises "unknown predicate"
    (S.Eval_error "unknown predicate Zap") (fun () ->
      ignore (S.holds_naive st [] (F.Pred ("Zap", [ F.cint 1 ]))));
  Alcotest.check_raises "not a sentence"
    (S.Eval_error "not a sentence; free variables: x") (fun () ->
      ignore (S.eval_sentence_naive st (F.Cmp (F.Eq, F.Var "x", F.Var "x"))))

let prop_miniscope_preserves_semantics =
  (* the naive reference agrees with itself across miniscoping, and the
     planned evaluator agrees with it on the miniscoped sentence *)
  QCheck.Test.make ~name:"Fol: miniscope preserves truth" ~count:120
    (QCheck.pair (Testutil.arbitrary_fol_sentence ~fuel:3 ()) QCheck.small_int)
    (fun (f, seed) ->
      let db = Testutil.monadic_db seed in
      let g = F.miniscope f in
      let st1 = S.for_formula f db and st2 = S.for_formula g db in
      let a = S.eval_sentence_naive st1 f in
      a = S.eval_sentence_naive st2 g
      && a = Diagres_rc.Drc_to_ra.eval_sentence db g)

let test_miniscope_pushes_negation () =
  (* the ∀-guard of catalog q3 must come out as ¬∃(guard ∧ ¬…), with no
     negation left above a ¬, ∧ or ∨ for the range analysis to stop at *)
  let q = Diagres.Catalog.parsed_drc Diagres.Catalog.q3 in
  let rec check = function
    | F.Not (F.Not _ | F.And _ | F.Or _) as g ->
      Alcotest.failf "negation not pushed: %s" (F.to_string g)
    | F.Implies _ | F.Forall _ as g ->
      Alcotest.failf "not eliminated: %s" (F.to_string g)
    | F.True | F.False | F.Pred _ | F.Cmp _ -> ()
    | F.Not g | F.Exists (_, g) -> check g
    | F.And (a, b) | F.Or (a, b) ->
      check a;
      check b
  in
  check (F.miniscope q.Diagres_rc.Drc.body)

let prop_nnf_fol_preserves_semantics =
  QCheck.Test.make ~name:"Fol: nnf/existentialize preserve truth" ~count:120
    (QCheck.pair (Testutil.arbitrary_fol_sentence ~fuel:3 ()) QCheck.small_int)
    (fun (f, seed) ->
      let db = Testutil.monadic_db seed in
      let st = S.for_formula f db in
      let a = S.eval_sentence_naive st f in
      a = S.eval_sentence_naive st (F.nnf f)
      && a = S.eval_sentence_naive st (F.existentialize f))

let prop_guards_change_nothing =
  (* the naive enumerator narrows a guarded variable to its atom's column;
     that must equal per-element [holds_naive] over the full universe *)
  QCheck.Test.make ~name:"Structure: guarded answers = direct holds" ~count:60
    QCheck.small_int
    (fun seed ->
      let db = Testutil.monadic_db seed in
      let f =
        F.And
          ( F.Pred ("P", [ F.Var "x" ]),
            F.Exists
              ( "y",
                F.And
                  ( F.Pred ("Q", [ F.Var "y" ]),
                    F.Not (F.Cmp (F.Eq, F.Var "x", F.Var "y")) ) ) )
      in
      let st = S.for_formula f db in
      let ans = S.answers_naive st ~order:[ "x" ] f in
      let direct =
        List.filter
          (fun v -> S.holds_naive st [ ("x", v) ] f)
          (S.universe st)
      in
      List.sort compare (List.map List.hd ans) = List.sort compare direct)

let () =
  Alcotest.run "logic"
    [
      ( "prop",
        [ Alcotest.test_case "eval" `Quick test_prop_eval;
          Alcotest.test_case "tautologies" `Quick test_prop_tautologies;
          Alcotest.test_case "parser" `Quick test_prop_parser;
          Testutil.qtest prop_print_parse_roundtrip;
          Testutil.qtest prop_nnf_equiv;
          Testutil.qtest prop_cnf_dnf_equiv;
          Testutil.qtest prop_simplify_equiv;
          Testutil.qtest prop_truth_table_agree ] );
      ( "fol",
        [ Alcotest.test_case "free vars" `Quick test_fol_free_vars;
          Alcotest.test_case "subst" `Quick test_fol_subst;
          Alcotest.test_case "existentialize" `Quick test_fol_existentialize;
          Testutil.qtest prop_nnf_fol_preserves_semantics;
          Testutil.qtest prop_miniscope_preserves_semantics;
          Alcotest.test_case "miniscope pushes negation" `Quick
            test_miniscope_pushes_negation ] );
      ( "structure",
        [ Alcotest.test_case "eval" `Quick test_structure_eval;
          Alcotest.test_case "constants extend universe" `Quick
            test_structure_constants_extend_universe;
          Alcotest.test_case "errors" `Quick test_structure_errors;
          Testutil.qtest prop_guards_change_nothing ] );
    ]
