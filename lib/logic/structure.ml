(** Finite first-order structures and naive formula evaluation.

    A database is read as an FO structure: relation names become predicates
    and the active domain becomes the (finite) universe.  Quantifiers range
    over the active domain — the standard move that makes safe calculus
    queries domain-independent.

    This is the textbook active-domain evaluation ({!holds_naive},
    {!answers_naive}), narrowed only by static column guards.  It is the
    reference semantics of DRC ({!Diagres_rc.Drc.eval_naive}) that the
    planned path ({!Diagres_rc.Drc_to_ra}) is differentially tested
    against; no user query runs it.

    The universe is lazy: it is built only when a quantifier without a
    column guard first reads it.  A structure is meant for one evaluation
    on one domain; forcing its universe from two domains at once is not
    supported. *)

module D = Diagres_data

type t = {
  universe : D.Value.t list Lazy.t;
      (** quantification range, built on first use *)
  db : D.Database.t;
}

let universe st = Lazy.force st.universe

(** Constants mentioned in a formula, which must be added to the universe so
    that e.g. [∃x. x = 'red' ∧ …] behaves as expected even when 'red' does
    not occur in the instance. *)
let rec constants = function
  | Fol.True | Fol.False -> []
  | Fol.Pred (_, ts) ->
    List.filter_map (function Fol.Const v -> Some v | Fol.Var _ -> None) ts
  | Fol.Cmp (_, a, b) ->
    List.filter_map
      (function Fol.Const v -> Some v | Fol.Var _ -> None)
      [ a; b ]
  | Fol.Not f -> constants f
  | Fol.And (a, b) | Fol.Or (a, b) | Fol.Implies (a, b) ->
    constants a @ constants b
  | Fol.Exists (_, f) | Fol.Forall (_, f) -> constants f

(** The structure of [db] for evaluating [f]: its universe is the active
    domain plus [f]'s constants. *)
let for_formula f db =
  let universe =
    lazy
      (List.sort_uniq D.Value.compare
         (constants f @ D.Database.active_domain db))
  in
  { universe; db }

exception Eval_error of string

let term_value env = function
  | Fol.Const v -> v
  | Fol.Var x -> (
    match List.assoc_opt x env with
    | Some v -> v
    | None -> raise (Eval_error ("unbound variable " ^ x)))

(* Guarded quantification: when [∃x φ] has a positive atom R(…x…) among
   φ's top-level conjuncts, x can only take values from that column of R —
   enumerate those instead of the whole universe.  Purely an optimization;
   semantics are unchanged.  It ignores the environment: whole columns are
   enumerated, which keeps this the naive active-domain evaluation. *)
let rec guard_values st x (f : Fol.t) =
  match f with
  | Fol.And (a, b) -> (
    match guard_values st x a with
    | Some _ as r -> r
    | None -> guard_values st x b)
  | Fol.Exists (y, g) when y <> x ->
    (* a conjunctively required subformula still guards x *)
    guard_values st x g
  | Fol.Or (a, b) -> (
    (* x is guarded by a disjunction only when both branches guard it *)
    match (guard_values st x a, guard_values st x b) with
    | Some va, Some vb -> Some (List.sort_uniq D.Value.compare (va @ vb))
    | _ -> None)
  | Fol.Pred (p, ts) -> (
    match D.Database.find_opt p st.db with
    | None -> None
    | Some rel ->
      let rec position i = function
        | [] -> None
        | Fol.Var y :: _ when y = x -> Some i
        | _ :: rest -> position (i + 1) rest
      in
      Option.map
        (fun i ->
          D.Relation.fold (fun tup acc -> D.Tuple.get tup i :: acc) rel []
          |> List.sort_uniq D.Value.compare)
        (position 0 ts))
  | _ -> None

(** Naive Tarskian satisfaction: quantifiers range over the universe,
    narrowed only by the static (environment-free) column guards. *)
let rec holds_naive st env = function
  | Fol.True -> true
  | Fol.False -> false
  | Fol.Pred (p, ts) ->
    let rel =
      match D.Database.find_opt p st.db with
      | Some r -> r
      | None -> raise (Eval_error ("unknown predicate " ^ p))
    in
    let args = List.map (term_value env) ts in
    if List.length args <> D.Schema.arity (D.Relation.schema rel) then
      raise (Eval_error ("arity mismatch for predicate " ^ p));
    D.Relation.mem (D.Tuple.of_list args) rel
  | Fol.Cmp (op, a, b) -> Fol.cmp_eval op (term_value env a) (term_value env b)
  | Fol.Not f -> not (holds_naive st env f)
  | Fol.And (a, b) -> holds_naive st env a && holds_naive st env b
  | Fol.Or (a, b) -> holds_naive st env a || holds_naive st env b
  | Fol.Implies (a, b) -> (not (holds_naive st env a)) || holds_naive st env b
  | Fol.Exists (x, f) ->
    let range =
      match guard_values st x f with
      | Some vs -> vs
      | None -> universe st
    in
    List.exists (fun v -> holds_naive st ((x, v) :: env) f) range
  | Fol.Forall (x, f) ->
    List.for_all (fun v -> holds_naive st ((x, v) :: env) f) (universe st)

let eval_sentence_naive st f =
  match Fol.free_var_list f with
  | [] -> holds_naive st [] f
  | xs ->
    raise
      (Eval_error
         ("not a sentence; free variables: " ^ String.concat ", " xs))

(** Naive active-domain enumeration of the answer set.  Exponential in the
    number of free variables; fine for the small instances used in
    differential tests. *)
let answers_naive st ?order f =
  let free = Fol.free_var_list f in
  let order = match order with Some o -> o | None -> free in
  if List.sort String.compare order <> free then
    raise (Eval_error "answers: order must list exactly the free variables");
  let rec go env = function
    | [] ->
      if holds_naive st env f then
        [ List.map (fun x -> List.assoc x env) order ]
      else []
    | x :: rest ->
      let range =
        match guard_values st x f with
        | Some vs -> vs
        | None -> universe st
      in
      List.concat_map (fun v -> go ((x, v) :: env) rest) range
  in
  go [] order
