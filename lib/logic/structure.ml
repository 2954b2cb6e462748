(** Finite first-order structures and formula evaluation.

    A database is read as an FO structure: relation names become predicates
    and the active domain becomes the (finite) universe.  Quantifiers range
    over the active domain — the standard move that makes safe calculus
    queries domain-independent.

    Two evaluation strategies coexist.  The {e range-restricted} one
    ({!holds}, {!answers}) binds each quantified variable from the tuples of
    the positive atoms that mention it — probing per-relation hash indexes
    on the argument positions already bound — and only falls back to
    active-domain enumeration for genuinely unrestricted variables.  The
    {e naive} one ({!holds_naive}, {!answers_naive}) is the textbook
    active-domain evaluation (with the static column-guard optimization),
    kept as the reference for differential tests and benches.

    The universe is lazy: sorting every value of every relation costs more
    than evaluating a typical range-restricted query, so it is built only
    when a fallback (an unrestricted variable, a ∀, a naive evaluator)
    first reads it.  A structure is meant for one evaluation on one domain;
    forcing its universe from two domains at once is not supported. *)

module D = Diagres_data

type t = {
  universe : D.Value.t list Lazy.t;
      (** quantification range, built on first use *)
  db : D.Database.t;
}

let universe st = Lazy.force st.universe

let of_database ?extra_constants db =
  let universe =
    lazy
      (let dom = D.Database.active_domain db in
       match extra_constants with
       | None -> dom
       | Some cs -> List.sort_uniq D.Value.compare (cs @ dom))
  in
  { universe; db }

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

let for_formula f db =
  of_database ~extra_constants:(constants f) db

exception Eval_error of string

let term_value env = function
  | Fol.Const v -> v
  | Fol.Var x -> (
    match List.assoc_opt x env with
    | Some v -> v
    | None -> raise (Eval_error ("unbound variable " ^ x)))

let term_value_opt env = function
  | Fol.Const v -> Some v
  | Fol.Var x -> List.assoc_opt x env

(* ---------------- range restriction ---------------- *)

(* [range st env x f]: a list of values guaranteed to contain every value of
   [x] for which [f] can hold under [env]; [None] when [x] is unrestricted
   (only then must the caller fall back to the universe).  The values come
   from conjunctively required positive atoms mentioning [x]: the matching
   tuples are fetched through a hash index on the atom's argument positions
   that are already bound (constants and env-bound variables), so nested
   quantifiers enumerate only the tuples joining with the bindings made so
   far.  Conjunctively required means: reachable through ∧ and through ∃
   binding other variables — never through ¬, → or ∀. *)
let rec range st env x (f : Fol.t) : D.Value.t list option =
  match f with
  | Fol.And (a, b) -> (
    match range st env x a with
    | Some _ as r -> r
    | None -> range st env x b)
  | Fol.Exists (y, g) when y <> x && not (List.mem_assoc y env) ->
    (* a conjunctively required subformula still restricts x; stop if y
       shadows a bound variable (the inner y would alias the outer one) *)
    range st env x g
  | Fol.Or (a, b) -> (
    (* x is restricted by a disjunction only when both branches restrict it *)
    match (range st env x a, range st env x b) with
    | Some va, Some vb -> Some (List.sort_uniq D.Value.compare (va @ vb))
    | _ -> None)
  | Fol.Cmp (Fol.Eq, Fol.Var x', t) when x' = x -> (
    match term_value_opt env t with Some v -> Some [ v ] | None -> None)
  | Fol.Cmp (Fol.Eq, t, Fol.Var x') when x' = x -> (
    match term_value_opt env t with Some v -> Some [ v ] | None -> None)
  | Fol.Pred (p, ts) -> (
    match D.Database.find_opt p st.db with
    | None -> None
    | Some rel ->
      let arity = D.Schema.arity (D.Relation.schema rel) in
      if List.length ts <> arity then None
      else
        let rec position i = function
          | [] -> None
          | Fol.Var y :: _ when y = x -> Some i
          | _ :: rest -> position (i + 1) rest
        in
        Option.map
          (fun i ->
            (* bound argument positions become the index key *)
            let positions, key_rev =
              List.fold_left
                (fun (ps, ks) (j, t) ->
                  match t with
                  | Fol.Const c -> (j :: ps, c :: ks)
                  | Fol.Var y when y <> x -> (
                    match List.assoc_opt y env with
                    | Some v -> (j :: ps, v :: ks)
                    | None -> (ps, ks))
                  | Fol.Var _ -> (ps, ks))
                ([], [])
                (List.mapi (fun j t -> (j, t)) ts)
            in
            let tups =
              D.Relation.matching rel (List.rev positions)
                (Array.of_list (List.rev key_rev))
            in
            List.map (fun tup -> D.Tuple.get tup i) tups
            |> List.sort_uniq D.Value.compare)
          (position 0 ts))
  | _ -> None

(** Tarskian satisfaction; quantified variables are bound from the atoms
    that mention them ({!range} above), falling back to the universe only
    for unrestricted variables (and for ∀, whose range cannot be narrowed
    soundly — the calculus front-ends miniscope first, which turns
    [∀x(G → H)] into [¬∃x(G ∧ ¬H)] so that G's atoms bind x). *)
let rec holds st env = function
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
  | Fol.Not f -> not (holds st env f)
  | Fol.And (a, b) -> holds st env a && holds st env b
  | Fol.Or (a, b) -> holds st env a || holds st env b
  | Fol.Implies (a, b) -> (not (holds st env a)) || holds st env b
  | Fol.Exists (x, f) ->
    let vals =
      match range st env x f with Some vs -> vs | None -> universe st
    in
    List.exists (fun v -> holds st ((x, v) :: env) f) vals
  | Fol.Forall (x, f) ->
    List.for_all (fun v -> holds st ((x, v) :: env) f) (universe st)

(** Evaluate a sentence (no free variables) to a Boolean. *)
let eval_sentence st f =
  match Fol.free_var_list f with
  | [] -> holds st [] f
  | xs ->
    raise
      (Eval_error
         ("not a sentence; free variables: " ^ String.concat ", " xs))

(** Answer set of a formula with free variables [order]: the DRC semantics.
    Free variables are enumerated outermost-first, each from its
    {!range}-restricted candidate set under the bindings made so far, so
    safe queries never touch the full active domain. *)
let answers st ?order f =
  let free = Fol.free_var_list f in
  let order = match order with Some o -> o | None -> free in
  if List.sort String.compare order <> free then
    raise (Eval_error "answers: order must list exactly the free variables");
  let rec go env = function
    | [] ->
      if holds st env f then [ List.map (fun x -> List.assoc x env) order ]
      else []
    | x :: rest ->
      let vals =
        match range st env x f with Some vs -> vs | None -> universe st
      in
      List.concat_map (fun v -> go ((x, v) :: env) rest) vals
  in
  go [] order

(* ---------------- naive reference evaluation ---------------- *)

(* Guarded quantification: when [∃x φ] has a positive atom R(…x…) among
   φ's top-level conjuncts, x can only take values from that column of R —
   enumerate those instead of the whole universe.  Purely an optimization;
   semantics are unchanged.  Unlike {!range} this ignores the environment:
   whole columns are enumerated, which is the naive active-domain behavior
   the range-restricted evaluator is differentially tested against. *)
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
  | (Fol.Pred _ | Fol.Cmp _) as f -> holds st env f
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
    differential tests, and precisely the baseline the benches compare the
    range-restricted evaluator against. *)
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
