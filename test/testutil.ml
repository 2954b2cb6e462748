(** Shared helpers for the test suites: relation equality checks, random
    databases, and a random generator of well-typed RA expressions over the
    sailors schema (the seed of every differential translation test). *)

module D = Diagres_data
module A = Diagres_ra.Ast

let db = D.Sample_db.db
let schemas = D.Sample_db.schemas
let env = Diagres_ra.Typecheck.env_of_database db

(** A very small instance with the sailors schema.  Properties checked
    against the naive calculus evaluators, which enumerate the active
    domain (adomᵏ for k variables), run on a database whose active domain
    is tiny. *)
let tiny_db =
  let i n = D.Value.Int n and s x = D.Value.String x and f x = D.Value.Float x in
  D.Database.of_list
    [ ( "Sailor",
        D.Relation.of_lists D.Sample_db.sailor_schema
          [ [ i 1; s "a"; i 7; f 30.0 ]; [ i 2; s "b"; i 9; f 20.0 ] ] );
      ( "Boat",
        D.Relation.of_lists D.Sample_db.boat_schema
          [ [ i 8; s "x"; s "red" ] ] );
      ( "Reserves",
        D.Relation.of_lists D.Sample_db.reserves_schema
          [ [ i 1; i 8; s "d1" ]; [ i 2; i 8; s "d2" ] ] ) ]

(** Alcotest check: two relations hold the same rows. *)
let check_same_rows msg expected actual =
  if not (D.Relation.same_rows expected actual) then
    Alcotest.failf "%s:\nexpected:\n%s\ngot:\n%s" msg
      (D.Relation.to_string expected)
      (D.Relation.to_string actual)

let sids xs = D.Sample_db.sid_relation xs

let random_dbs n =
  List.init n (fun i ->
      D.Generator.sailors_db ~n_sailors:(4 + (i mod 7)) ~n_boats:(2 + (i mod 4))
        ~n_reserves:(6 + (2 * i mod 20))
        (i * 31 + 7))

(* ------------------------------------------------------------------ *)
(* Random RA expressions (QCheck).                                      *)

(* A random constant matching a column's static type — the strict
   typechecker rejects cross-type comparisons, so generated predicates must
   be type-correct. *)
let typed_const (rand : Random.State.t) (ty : D.Value.ty) : D.Value.t =
  match ty with
  | D.Value.Tint -> D.Value.Int (Random.State.int rand 120)
  | D.Value.Tfloat -> D.Value.Float (float_of_int (Random.State.int rand 60))
  | D.Value.Tstring ->
    let pool = [ "red"; "green"; "blue"; "a"; "b"; "d1" ] in
    D.Value.String (List.nth pool (Random.State.int rand (List.length pool)))
  | D.Value.Tbool -> D.Value.Bool (Random.State.bool rand)
  | D.Value.Tany ->
    if Random.State.bool rand then D.Value.Int (Random.State.int rand 120)
    else D.Value.String "red"

let attr_ty schema a =
  match D.Schema.find_opt a schema with
  | Some at -> at.D.Schema.ty
  | None -> D.Value.Tany

(* Build well-typed expressions bottom-up; at each size, pick an operator
   whose schema requirements we can satisfy. *)
let rec gen_ra (rand : Random.State.t) fuel : A.t =
  let base () =
    match Random.State.int rand 3 with
    | 0 -> A.Rel "Sailor"
    | 1 -> A.Rel "Boat"
    | _ -> A.Rel "Reserves"
  in
  if fuel <= 0 then base ()
  else
    let sub () = gen_ra rand (fuel - 1) in
    let e = sub () in
    let schema = Diagres_ra.Typecheck.infer env e in
    let attrs = D.Schema.names schema in
    let pick_attr () =
      List.nth attrs (Random.State.int rand (List.length attrs))
    in
    match Random.State.int rand 8 with
    | 0 ->
      (* selection with a random comparison against a type-correct constant *)
      let a = pick_attr () in
      let ops = Diagres_logic.Fol.[ Eq; Neq; Lt; Le; Gt; Ge ] in
      let op = List.nth ops (Random.State.int rand 6) in
      let const = A.Const (typed_const rand (attr_ty schema a)) in
      A.Select (A.Cmp (op, A.Attr a, const), e)
    | 1 ->
      (* projection on a random non-empty subset, stable order *)
      let keep = List.filter (fun _ -> Random.State.bool rand) attrs in
      let keep = if keep = [] then [ pick_attr () ] else keep in
      A.Project (List.sort_uniq compare keep, e)
    | 2 ->
      (* rename one attribute to a name fresh in the schema *)
      let a = pick_attr () in
      let rec fresh k =
        let cand = Printf.sprintf "%s_r%d" a k in
        if List.mem cand attrs then fresh (k + 1) else cand
      in
      A.Rename ([ (a, fresh 0) ], e)
    | 3 ->
      (* natural join with a base relation *)
      A.Join (e, base ())
    | 4 ->
      (* set operation with itself (guaranteed compatible) *)
      let a = pick_attr () in
      let e2 =
        A.Select
          ( A.Cmp
              ( Diagres_logic.Fol.Neq, A.Attr a,
                A.Const (typed_const rand (attr_ty schema a)) ),
            e )
      in
      (match Random.State.int rand 3 with
      | 0 -> A.Union (e, e2)
      | 1 -> A.Inter (e, e2)
      | _ -> A.Diff (e, e2))
    | 5 ->
      (* product with a fully renamed-apart base relation *)
      let b = base () in
      let bs = D.Schema.names (Diagres_ra.Typecheck.infer env b) in
      let taken = ref (attrs @ bs) in
      let renames =
        List.map
          (fun n ->
            let rec fresh k =
              let cand = Printf.sprintf "%s_p%d" n k in
              if List.mem cand !taken then fresh (k + 1) else cand
            in
            let f = fresh 0 in
            taken := f :: !taken;
            (n, f))
          bs
      in
      A.Product (e, A.Rename (renames, b))
    | 6 ->
      (* disjunctive selection — exercises panel splitting *)
      let a = pick_attr () in
      let ty = attr_ty schema a in
      A.Select
        ( A.Or
            ( A.Cmp (Diagres_logic.Fol.Eq, A.Attr a, A.Const (typed_const rand ty)),
              A.Cmp (Diagres_logic.Fol.Eq, A.Attr a, A.Const (typed_const rand ty)) ),
          e )
    | _ -> e

let arbitrary_ra ?(fuel = 3) () =
  QCheck.make
    ~print:(fun e -> Diagres_ra.Pretty.ascii e)
    (QCheck.Gen.map
       (fun seed ->
         let rand = Random.State.make [| seed |] in
         gen_ra rand fuel)
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* Random propositional formulas.                                       *)

let rec gen_prop (rand : Random.State.t) fuel : Diagres_logic.Prop.t =
  let module P = Diagres_logic.Prop in
  if fuel <= 0 then
    match Random.State.int rand 5 with
    | 0 -> P.True
    | 1 -> P.False
    | _ -> P.Var (Printf.sprintf "p%d" (Random.State.int rand 4))
  else
    let sub () = gen_prop rand (fuel - 1) in
    match Random.State.int rand 6 with
    | 0 -> P.Not (sub ())
    | 1 -> P.And (sub (), sub ())
    | 2 -> P.Or (sub (), sub ())
    | 3 -> P.Implies (sub (), sub ())
    | 4 -> P.Iff (sub (), sub ())
    | _ -> gen_prop rand 0

let arbitrary_prop ?(fuel = 4) () =
  QCheck.make
    ~print:Diagres_logic.Prop.to_string
    (QCheck.Gen.map
       (fun seed ->
         let rand = Random.State.make [| seed |] in
         gen_prop rand fuel)
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* Random Boolean DRC sentences over a small monadic/dyadic vocabulary. *)

let rec gen_fol_sentence (rand : Random.State.t) fuel bound : Diagres_logic.Fol.t =
  let module F = Diagres_logic.Fol in
  let atom () =
    if bound = [] then F.True
    else
      let v () = List.nth bound (Random.State.int rand (List.length bound)) in
      match Random.State.int rand 4 with
      | 0 -> F.Pred ("P", [ F.Var (v ()) ])
      | 1 -> F.Pred ("Q", [ F.Var (v ()) ])
      | 2 -> F.Pred ("R", [ F.Var (v ()) ])
      | _ -> F.Cmp (F.Eq, F.Var (v ()), F.Var (v ()))
  in
  if fuel <= 0 then atom ()
  else
    let sub b = gen_fol_sentence rand (fuel - 1) b in
    let fresh () = Printf.sprintf "v%d" (List.length bound) in
    match Random.State.int rand 9 with
    | 0 -> F.Not (sub bound)
    | 1 -> F.And (sub bound, sub bound)
    | 2 -> F.Or (sub bound, sub bound)
    | 3 -> F.Implies (sub bound, sub bound)
    | 4 | 5 ->
      let x = fresh () in
      F.Exists (x, gen_fol_sentence rand (fuel - 1) (x :: bound))
    | 6 ->
      let x = fresh () in
      F.Forall (x, gen_fol_sentence rand (fuel - 1) (x :: bound))
    | _ -> atom ()

let arbitrary_fol_sentence ?(fuel = 4) () =
  QCheck.make
    ~print:Diagres_logic.Fol.to_string
    (QCheck.Gen.map
       (fun seed ->
         let rand = Random.State.make [| seed |] in
         (* start with one quantified variable so atoms exist *)
         let f = gen_fol_sentence rand fuel [ "v0" ] in
         Diagres_logic.Fol.Exists ("v0", f))
       QCheck.Gen.int)

let monadic_db seed =
  D.Generator.monadic_db ~universe:5 ~preds:[ "P"; "Q"; "R" ] seed

let qtest = QCheck_alcotest.to_alcotest
