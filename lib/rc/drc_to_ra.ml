(** DRC → RA by range restriction (the constructive half of Codd's
    theorem, after Abiteboul–Hull–Vianu ch. 5 and Van Gelder–Topor).

    The body is first put in the ¬∃-only form of {!Diagres_logic.Fol.miniscope}
    (no ∀, no ⇒, negations resting on atoms, comparisons and ∃), its
    bound variables are renamed apart, and a quantified variable that an
    equality fixes is substituted away ({!eliminate_equalities}).  Each
    subformula φ is then translated {e relative to a context} C: an RA
    expression whose columns are the variables already bound around φ.
    The result T(φ, C) has C's
    columns plus φ's other free variables, and holds the rows of C extended
    by the bindings under which φ is true:

    - an atom R(t̄) is C ⋈ ρ(π(σ(R))) — σ for constant and repeated
      positions, π to one column per variable, ρ to the variable names;
    - a comparison on bound variables is a selection of C; [x = t] with x
      unbound and t bound (or a constant) extends C by one column;
    - ∃x̄ ψ is π over T(ψ, C);
    - ¬ψ is C − π_C(T(ψ, C));
    - ∨ is the union of its branches over the same C.

    The conjuncts of a conjunction are taken in a range-restricted order:
    atoms first, then selections, positive ∃/∨ blocks that bind their own
    variables, equalities that bind, and negations last, once their
    variables are bound.  A block that binds all its free variables
    on its own (it is {e self-contained}) is translated once, without C,
    and joined with C — a semi-join when C binds all of them — so
    uncorrelated ∃ and ¬∃ blocks plan like hand-written RA.

    The active domain enters only when no conjunct can bind a variable
    that the remaining ones need — the test {!Safety.safe_range} makes.
    Safe-range queries then never touch it; unsafe ones keep the
    active-domain reading (Peirce's beta graphs, E4), with the formula's
    constants in the domain exactly as {!Drc.eval_naive} has them.
    Constants enter the algebra as literal relations
    ({!Diagres_ra.Ast.Values}), which also bind a variable restricted only
    by [x = c].

    This is DRC's one evaluator: {!eval} for queries and {!eval_sentence}
    for Boolean sentences (E4's beta-graph readings, constraint diagrams,
    the Part 2 principles).  {!Drc.eval_naive} is its oracle. *)

module A = Diagres_ra.Ast
module F = Diagres_logic.Fol
module V = Diagres_data.Value
module S = Set.Make (String)

(* An RA expression with its column order.  [empty] marks an expression
   known to denote ∅ (a false conjunct): it propagates through joins and
   projections, and drops out of unions and differences, so the query is
   wrapped in [Ast.Empty] once, at the top. *)
type rel = { e : A.t; cols : string list; empty : bool }

(* The bindings around a subformula: none yet (the 0-ary unit), or a
   relation over the bound variables. *)
type ctx = Unit | Rel of rel

type env = {
  schemas : (string * Diagres_data.Schema.t) list;
  consts : V.t list;  (** the formula's constants, part of the domain *)
}

(* The literal unit relation {()}. *)
let unit_rel =
  { e = A.Project ([], A.Values ("unit", [ V.Int 0 ])); cols = []; empty = false }

let rel e cols = { e; cols; empty = false }

let rel_of = function Unit -> unit_rel | Rel r -> r
let cols_of = function Unit -> [] | Rel r -> r.cols
let project cols r = if cols = r.cols then r else { r with e = A.Project (cols, r.e); cols }

(* Natural join of the context with [r]; a product when they share no
   variable.  The unit (possibly marked empty) joins as the identity. *)
let join c r =
  match c with
  | Unit -> r
  | Rel l when l.e == unit_rel.e -> { r with empty = l.empty || r.empty }
  | Rel l ->
    { e = A.Join (l.e, r.e);
      cols = l.cols @ List.filter (fun x -> not (List.mem x l.cols)) r.cols;
      empty = l.empty || r.empty }

let union a b =
  if a.empty then b else if b.empty then a else { a with e = A.Union (a.e, b.e) }

(* [a − b]; [b] has [a]'s columns. *)
let diff a b = if b.empty then a else { a with e = A.Diff (a.e, (project a.cols b).e) }

(** The active domain as a one-column relation named [x]: every column of
    every relation, plus the formula's constants. *)
let adom env x : rel =
  let columns =
    List.concat_map
      (fun (r, schema) ->
        List.map
          (fun a ->
            let p = A.Project ([ a ], A.Rel r) in
            if a = x then p else A.Rename ([ (a, x) ], p))
          (Diagres_data.Schema.names schema))
      env.schemas
  in
  let pieces = if env.consts = [] then columns else columns @ [ A.Values (x, env.consts) ] in
  match pieces with
  | [] -> { e = A.Values (x, []); cols = [ x ]; empty = true }
  | p :: ps -> rel (List.fold_left (fun acc q -> A.Union (acc, q)) p ps) [ x ]

(** Translate an atom R(t₁,…,tₖ): select positions carrying constants or
    repeated variables, project one representative position per variable
    not in [drop] (the variables of an ∃ block around the atom alone), and
    rename to the variable names. *)
let atom ?(drop = []) env (p : string) (ts : F.term list) : rel =
  (* {!Drc.typecheck} has checked the relation and its arity *)
  let attrs = Diagres_data.Schema.names (List.assoc p env.schemas) in
  let paired = List.combine attrs ts in
  (* first attribute position for each variable; equality among repeats *)
  let var_repr = Hashtbl.create 8 in
  let conds =
    List.concat_map
      (fun (a, t) ->
        match t with
        | F.Const c -> [ A.Cmp (F.Eq, A.Attr a, A.Const c) ]
        | F.Var x -> (
          match Hashtbl.find_opt var_repr x with
          | None ->
            Hashtbl.add var_repr x a;
            []
          | Some a0 -> [ A.Cmp (F.Eq, A.Attr a0, A.Attr a) ]))
      paired
  in
  let vars =
    List.filter_map
      (fun (a, t) ->
        match t with
        | F.Var x when Hashtbl.find_opt var_repr x = Some a && not (List.mem x drop) ->
          Some (a, x)
        | _ -> None)
      paired
  in
  let selected = if conds = [] then A.Rel p else A.Select (A.pred_conj conds, A.Rel p) in
  let kept = List.map fst vars in
  let projected = if kept = attrs then selected else A.Project (kept, selected) in
  let renames = List.filter (fun (a, x) -> a <> x) vars in
  let e = if renames = [] then projected else A.Rename (renames, projected) in
  rel e (List.map snd vars)

(* ---------------- formula analysis ---------------- *)

let free f = S.of_list (F.free_vars f)

let rec conjuncts = function F.And (a, b) -> conjuncts a @ conjuncts b | g -> [ g ]
let rec disjuncts = function F.Or (a, b) -> disjuncts a @ disjuncts b | g -> [ g ]

(* Quantifier- and atom-free: compiles to a selection predicate. *)
let rec is_pure = function
  | F.True | F.False | F.Cmp _ -> true
  | F.Not g -> is_pure g
  | F.And (a, b) | F.Or (a, b) -> is_pure a && is_pure b
  | F.Pred _ | F.Exists _ | F.Forall _ | F.Implies _ -> false

(** The variables [f] restricts (binds from atoms, or from constants and
    bound variables through equalities) once the variables in [bound] have
    values — the range-restriction test of {!Safety.rr}, relative to a
    context.  Includes [bound] for conjunctions. *)
let rec rr bound (f : F.t) : S.t =
  match f with
  | F.Pred (_, ts) -> S.of_list (List.concat_map F.term_vars ts)
  | F.Cmp (F.Eq, F.Var x, F.Const _) | F.Cmp (F.Eq, F.Const _, F.Var x) -> S.singleton x
  | F.Cmp (F.Eq, F.Var x, F.Var y) ->
    if S.mem x bound then S.singleton y
    else if S.mem y bound then S.singleton x
    else S.empty
  | F.And _ ->
    let cs = conjuncts f in
    let rec fix b =
      let b' = List.fold_left (fun acc c -> S.union acc (rr acc c)) b cs in
      if S.equal b b' then b else fix b'
    in
    fix bound
  | F.Or (a, b) -> S.inter (rr bound a) (rr bound b)
  | F.Exists (x, g) -> S.remove x (rr (S.remove x bound) g)
  | _ -> S.empty

(* [f] binds every free variable it has outside [bound]. *)
let binds_own bound f = S.subset (S.diff (free f) bound) (rr bound f)

(* Binds all its free variables with no context at all. *)
let self_contained f = binds_own S.empty f

(* Fold constant comparisons and True/False through a pure formula. *)
let rec simplify (f : F.t) : F.t =
  match f with
  | F.Cmp (op, F.Const a, F.Const b) -> if F.cmp_eval op a b then F.True else F.False
  | F.Not g -> (
    match simplify g with F.True -> F.False | F.False -> F.True | h -> F.Not h)
  | F.And (a, b) -> (
    match (simplify a, simplify b) with
    | F.False, _ | _, F.False -> F.False
    | F.True, h | h, F.True -> h
    | a', b' -> F.And (a', b'))
  | F.Or (a, b) -> (
    match (simplify a, simplify b) with
    | F.True, _ | _, F.True -> F.True
    | F.False, h | h, F.False -> h
    | a', b' -> F.Or (a', b'))
  | _ -> f

let operand = function F.Var v -> A.Attr v | F.Const c -> A.Const c

(* A simplified pure formula (no True/False left) as a predicate. *)
let rec pred_of (f : F.t) : A.pred =
  match f with
  | F.Cmp (op, a, b) -> A.Cmp (op, operand a, operand b)
  | F.And (a, b) -> A.And (pred_of a, pred_of b)
  | F.Or (a, b) -> A.Or (pred_of a, pred_of b)
  | F.Not g -> A.Not (pred_of g)
  | _ -> invalid_arg "Drc_to_ra.pred_of: not a pure formula"

(** Rename bound variables apart from each other and from the free ones,
    so that a variable names one column throughout the translation. *)
let rename_apart free_vars (f : F.t) : F.t =
  let used = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace used x ()) free_vars;
  let rec fresh x k =
    let y = Printf.sprintf "%s_%d" x k in
    if Hashtbl.mem used y then fresh x (k + 1) else y
  in
  let rec go (f : F.t) : F.t =
    match f with
    | F.Exists (x, g) ->
      let x' = if Hashtbl.mem used x then fresh x 1 else x in
      Hashtbl.replace used x' ();
      F.Exists (x', go (if x' = x then g else F.subst x (F.Var x') g))
    | F.Not g -> F.Not (go g)
    | F.And (a, b) ->
      let a = go a in
      F.And (a, go b)
    | F.Or (a, b) ->
      let a = go a in
      F.Or (a, go b)
    | _ -> f
  in
  go f

(** Eliminate quantified variables that an equality fixes:
    [∃y (y = t ∧ φ)] becomes [φ[t/y]].  After {!rename_apart} the
    substitution captures nothing; the constants stay in the domain, which
    is taken before.  This turns [∃c (Boat(b, n, c) ∧ c = 'red')] into
    [Boat(b, n, 'red')], and the [r.sid = s.sid] of a TRC range into a
    shared variable, i.e. a natural join. *)
let rec eliminate_equalities (f : F.t) : F.t =
  match f with
  | F.Exists (y, g) -> (
    let g = eliminate_equalities g in
    let cs = conjuncts g in
    let fixes = function
      | F.Cmp (F.Eq, F.Var v, t) when v = y && t <> F.Var y -> Some t
      | F.Cmp (F.Eq, t, F.Var v) when v = y && t <> F.Var y -> Some t
      | _ -> None
    in
    match List.find_map (fun c -> Option.map (fun t -> (c, t)) (fixes c)) cs with
    | Some (c, t) -> F.subst y t (F.conj (List.filter (fun d -> d != c) cs))
    | None -> F.Exists (y, g))
  | F.Not g -> F.Not (eliminate_equalities g)
  | F.And (a, b) -> F.And (eliminate_equalities a, eliminate_equalities b)
  | F.Or (a, b) -> F.Or (eliminate_equalities a, eliminate_equalities b)
  | _ -> f

(* ---------------- translation ---------------- *)

(* T(f, c) *)
let rec tr env (c : ctx) (f : F.t) : ctx = conj env c (conjuncts f)

(* Translate the conjuncts [fs] in a range-restricted order. *)
and conj env (c : ctx) (fs : F.t list) : ctx =
  match fs with
  | [] -> c
  | _ ->
    let bound = S.of_list (cols_of c) in
    let ready f = S.subset (free f) bound in
    let take p k =
      match List.find_opt p fs with
      | Some f -> Some (k f, List.filter (fun g -> g != f) fs)
      | None -> None
    in
    let steps =
      [ ((function F.Pred _ -> true | _ -> false), fun f -> apply_atom env c f);
        ((fun f -> is_pure f && ready f), fun f -> filter c f);
        ((function
           | (F.Exists _ | F.Or _) as f -> binds_own bound f
           | _ -> false),
         fun f -> positive env c f);
        ( (fun f -> eq_binding bound f <> None),
          fun f -> bind_eq c (Option.get (eq_binding bound f)) );
        ((function F.Not _ as f -> ready f | _ -> false), fun f -> negate env c f) ]
    in
    let rec first = function
      | [] -> None
      | (p, k) :: rest -> ( match take p k with Some r -> Some r | None -> first rest)
    in
    (match first steps with
    | Some (c', rest) -> conj env c' rest
    | None ->
      (* no conjunct binds what the rest need: the active domain for one
         unrestricted variable *)
      let x =
        List.find_map (fun f -> S.min_elt_opt (S.diff (free f) bound)) fs
        |> Option.get
      in
      conj env (Rel (join c (adom env x))) fs)

and apply_atom env c = function
  | F.Pred (p, ts) -> Rel (join c (atom env p ts))
  | _ -> assert false

and filter c f =
  match simplify f with
  | F.True -> c
  | F.False -> Rel { (rel_of c) with empty = true }
  | g -> (
    match c with
    | Unit -> assert false (* a closed pure formula simplifies to a constant *)
    | Rel r -> Rel { r with e = A.Select (pred_of g, r.e) })

(* [x = t] with x unbound and t a constant or a bound variable *)
and eq_binding bound f =
  let bound_term = function F.Const _ -> true | F.Var y -> S.mem y bound in
  match f with
  | F.Cmp (F.Eq, F.Var x, t) when (not (S.mem x bound)) && bound_term t -> Some (x, t)
  | F.Cmp (F.Eq, t, F.Var x) when (not (S.mem x bound)) && bound_term t -> Some (x, t)
  | _ -> None

and bind_eq c (x, t) =
  match t with
  | F.Const v -> Rel (join c (rel (A.Values (x, [ v ])) [ x ]))
  | F.Var y ->
    let r = rel_of c in
    let copy = A.Rename ([ (y, x) ], A.Project ([ y ], r.e)) in
    Rel
      { r with
        e = A.Select (A.Cmp (F.Eq, A.Attr x, A.Attr y), A.Product (r.e, copy));
        cols = r.cols @ [ x ] }

(* A positive ∃ or ∨ block. *)
and positive env c f =
  match c with
  | Rel _ when self_contained f -> Rel (join c (rel_of (block env Unit f)))
  | _ -> block env c f

and block env c f =
  match f with
  | F.Exists _ ->
    let rec strip xs = function F.Exists (x, g) -> strip (x :: xs) g | g -> (xs, g) in
    let xs, g = strip [] f in
    let r =
      match g with
      | F.Pred (p, ts) -> join c (atom ~drop:xs env p ts)
      | _ -> rel_of (tr env c g)
    in
    Rel (project (List.filter (fun v -> not (List.mem v xs)) r.cols) r)
  | F.Or _ ->
    let have = cols_of c in
    let target =
      have @ List.filter (fun x -> not (List.mem x have)) (F.free_var_list f)
    in
    let branch g =
      let r = rel_of (tr env c g) in
      (* a variable free in another branch ranges over the domain here *)
      let missing = List.filter (fun x -> not (List.mem x r.cols)) target in
      project target (List.fold_left (fun r x -> join (Rel r) (adom env x)) r missing)
    in
    (match List.map branch (disjuncts f) with
    | [] -> assert false
    | b :: bs -> Rel (List.fold_left union b bs))
  | g -> tr env c g

(* ¬g, with g's free variables bound by [c] *)
and negate env c = function
  | F.Not g ->
    let r = rel_of c in
    if self_contained g then
      let x = rel_of (block env Unit g) in
      if S.equal (S.of_list x.cols) (S.of_list r.cols) then Rel (diff r x)
      else Rel (diff r (join c x))
    else Rel (diff r (rel_of (block env c g)))
  | _ -> assert false

(** Translate a DRC query into RA; the result's columns follow the query
    head.  A body that folds to a constant gives the unit relation (true,
    empty head) or {!Diagres_ra.Ast.Empty} with the head's schema. *)
let query schemas (q : Drc.query) : A.t =
  Drc.typecheck schemas q;
  let body = F.miniscope q.Drc.body in
  let consts =
    List.sort_uniq V.compare (Diagres_logic.Structure.constants body)
  in
  let body = eliminate_equalities (rename_apart q.Drc.head body) in
  let r = project q.Drc.head (rel_of (tr { schemas; consts } Unit body)) in
  if r.empty then A.Empty r.e else r.e

(** Evaluate a DRC query through the planner: translate, then
    {!Diagres_ra.Eval.eval_planned} (typecheck, plan cache, {!Diagres_ra.Plan.run}). *)
let eval db (q : Drc.query) : Diagres_data.Relation.t =
  let schemas =
    List.map
      (fun (n, r) -> (n, Diagres_data.Relation.schema r))
      (Diagres_data.Database.relations db)
  in
  Diagres_ra.Eval.eval_planned db (query schemas q)

(** Truth of a Boolean sentence, planned as the 0-ary query
    [{ | body }]: true when its answer is the unit relation.  Unsafe
    sentences (beta graphs whose readings quantify over everything) take the
    active-domain fallback, as in {!Drc.eval_sentence_naive}. *)
let eval_sentence db body =
  not (Diagres_data.Relation.is_empty (eval db { Drc.head = []; body }))
