(** Safe-range analysis for DRC formulas (Abiteboul–Hull–Vianu, ch. 5.4).

    A DRC query is {e safe-range} when every free variable is "range
    restricted": bound to a relation column or (transitively, through
    equalities) to a constant.  Safe-range DRC, safe TRC, RA, and
    non-recursive Datalog are equi-expressive — the equivalence the
    tutorial's language backbone rests on.  Range-coupled TRC is safe by
    construction; this module provides the DRC side. *)

module F = Diagres_logic.Fol

(** Put a formula in {e safe-range normal form}: no ∀, no ⇒, no ¬¬, and
    quantifier blocks flattened.  (Negations are {e not} pushed through
    ∧/∨ — SRNF keeps them where they are.) *)
let rec srnf (f : F.t) : F.t =
  match f with
  | F.True | F.False | F.Pred _ | F.Cmp _ -> f
  | F.Not g -> (
    match srnf g with F.Not h -> h | h -> F.Not h)
  | F.And (a, b) -> F.And (srnf a, srnf b)
  | F.Or (a, b) -> F.Or (srnf a, srnf b)
  | F.Implies (a, b) -> srnf (F.Or (F.Not a, b))
  | F.Exists (x, g) -> F.Exists (x, srnf g)
  | F.Forall (x, g) -> srnf (F.Not (F.Exists (x, F.Not g)))

module Sset = Set.Make (String)

exception Unsafe of string

(* Range-restricted variables of an SRNF formula.  Raises [Unsafe] when a
   quantified variable is not restricted within its scope. *)
let rec rr (f : F.t) : Sset.t =
  match f with
  | F.True | F.False -> Sset.empty
  | F.Pred (_, ts) ->
    List.fold_left
      (fun acc t -> match t with F.Var x -> Sset.add x acc | F.Const _ -> acc)
      Sset.empty ts
  | F.Cmp (F.Eq, F.Var x, F.Const _) | F.Cmp (F.Eq, F.Const _, F.Var x) ->
    Sset.singleton x
  | F.Cmp _ -> Sset.empty
  | F.And _ ->
    (* collect conjuncts, then propagate x=y equalities to a fixpoint *)
    let rec conjuncts = function
      | F.And (a, b) -> conjuncts a @ conjuncts b
      | g -> [ g ]
    in
    let cs = conjuncts f in
    let base =
      List.fold_left (fun acc c -> Sset.union acc (rr c)) Sset.empty cs
    in
    let eqs =
      List.filter_map
        (function
          | F.Cmp (F.Eq, F.Var x, F.Var y) -> Some (x, y)
          | _ -> None)
        cs
    in
    let rec propagate s =
      let s' =
        List.fold_left
          (fun s (x, y) ->
            if Sset.mem x s || Sset.mem y s then Sset.add x (Sset.add y s)
            else s)
          s eqs
      in
      if Sset.equal s s' then s else propagate s'
    in
    propagate base
  | F.Or (a, b) -> Sset.inter (rr a) (rr b)
  | F.Not g ->
    ignore (rr g);
    Sset.empty
  | F.Exists (x, g) ->
    let s = rr g in
    if Sset.mem x s then Sset.remove x s
    else raise (Unsafe (Printf.sprintf "quantified variable %s is not range restricted" x))
  | F.Forall _ | F.Implies _ ->
    invalid_arg "rr: formula not in SRNF"

(** [safe_range f] decides whether the formula is safe-range: all free
    variables range restricted and all quantified variables restricted in
    their scopes. *)
let safe_range (f : F.t) : bool =
  let f = srnf f in
  match rr f with
  | s -> Sset.subset (Sset.of_list (F.free_var_list f)) s
  | exception Unsafe _ -> false

(** Like {!safe_range} but explains a failure. *)
let check (f : F.t) : (unit, string) result =
  let g = srnf f in
  match rr g with
  | s ->
    let missing =
      List.filter (fun x -> not (Sset.mem x s)) (F.free_var_list g)
    in
    if missing = [] then Ok ()
    else
      Error
        (Printf.sprintf "free variable(s) not range restricted: %s"
           (String.concat ", " missing))
  | exception Unsafe msg -> Error msg

let safe_query (q : Drc.query) = safe_range q.Drc.body

(** Witness of domain dependence for an unsafe query: evaluating under the
    active domain vs. the active domain extended with one fresh constant
    gives different answers.  Used by tests and by the Part-4 discussion of
    beta-graph semantics. *)
let domain_dependence_witness db (q : Drc.query) =
  let module D = Diagres_data in
  let module S = Diagres_logic.Structure in
  let st0 = S.for_formula q.Drc.body db in
  let fresh = D.Value.Int 982_451_653 in
  let st1 = { st0 with S.universe = lazy (fresh :: S.universe st0) } in
  let a0 = S.answers_naive st0 ~order:q.Drc.head q.Drc.body in
  let a1 = S.answers_naive st1 ~order:q.Drc.head q.Drc.body in
  if a0 = a1 then None else Some (a0, a1)
