(** Rewrite-based logical optimizer for RA expressions.

    These are the classical algebraic rewrites; the benches use them both to
    show evaluator speedups (selection pushdown turns products into joins)
    and as the "ablation" axis for diagram complexity (optimized trees give
    smaller DFQL dataflow diagrams). *)

module D = Diagres_data

(* Attributes an expression exposes; needed to decide pushdown legality.  We
   thread a typing environment because renames change attribute names. *)
let attrs env e = D.Schema.names (Typecheck.infer env e)

let rec split_conj = function
  | Ast.And (a, b) -> split_conj a @ split_conj b
  | Ast.Ptrue -> []
  | p -> [ p ]

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* Static unsatisfiability of a conjunct: equality between operands whose
   column types can never meet (e.g. an int column against a string
   literal).  This is what prunes the dead branches of active-domain
   unions that calculus translation produces. *)
let operand_ty_opt schema = function
  | Ast.Const v -> Some (D.Value.type_of v)
  | Ast.Attr a ->
    Option.map (fun at -> at.D.Schema.ty) (D.Schema.find_opt a schema)

let conjunct_unsat schema = function
  | Ast.Cmp (Diagres_logic.Fol.Eq, x, y) -> (
    match (operand_ty_opt schema x, operand_ty_opt schema y) with
    | Some tx, Some ty -> not (D.Value.ty_compatible tx ty)
    | _ -> false)
  | _ -> false

let pred_unsat schema p =
  List.exists (conjunct_unsat schema) (split_conj p)

(* Distributing a selection into a set-operation branch is only legal when
   the predicate stays well-typed against that branch's (narrower) schema:
   a union of heterogeneous columns types as the join of its branch types,
   so a predicate fine above the union (e.g. [x <> 56] over an
   active-domain column) can be ill-typed inside a single branch. *)
let pred_typed env p e =
  let schema = Typecheck.infer env e in
  (* an unsatisfiable predicate (incompatible [=]) is fine to push: the
     branch select is erased as statically dead by the rule above *)
  pred_unsat schema p
  ||
  match Typecheck.check_pred schema p with
  | () -> true
  | exception Typecheck.Type_error _ -> false

(* The canonical empty relation with the same schema as [e].  [Ast.Empty]
   is a zero-cost literal: evaluators produce an empty relation without
   touching [e] (the old encoding, [Diff (e, e)], evaluated [e] twice). *)
let empty_of e = Ast.Empty e

let rec is_empty_expr = function
  | Ast.Empty _ | Ast.Values (_, []) -> true
  | Ast.Diff (a, b) when Ast.equal a b -> true
  | Ast.Select (_, e) | Ast.Project (_, e) | Ast.Rename (_, e) ->
    is_empty_expr e
  | Ast.Product (a, b) | Ast.Join (a, b) | Ast.Theta_join (_, a, b) ->
    is_empty_expr a || is_empty_expr b
  | Ast.Inter (a, b) -> is_empty_expr a || is_empty_expr b
  | Ast.Union (a, b) -> is_empty_expr a && is_empty_expr b
  | _ -> false

(* The input name of output attribute [x] under the simultaneous
   renaming [pairs]. *)
let renamed_from pairs x =
  match List.find_opt (fun (_, b) -> b = x) pairs with Some (a, _) -> a | None -> x

let rec rename_pred f (p : Ast.pred) : Ast.pred =
  let operand = function Ast.Attr a -> Ast.Attr (f a) | c -> c in
  match p with
  | Ast.Cmp (op, a, b) -> Ast.Cmp (op, operand a, operand b)
  | Ast.And (a, b) -> Ast.And (rename_pred f a, rename_pred f b)
  | Ast.Or (a, b) -> Ast.Or (rename_pred f a, rename_pred f b)
  | Ast.Not a -> Ast.Not (rename_pred f a)
  | Ast.Ptrue -> Ast.Ptrue

(** One bottom-up simplification pass.  Rules:
    - cascade selections: σp(σq(e)) → σ(p∧q)(e)
    - selection over product/theta-join: push conjuncts to the side that
      covers them; conjuncts spanning both sides fold into a theta join
    - selection over union/diff/intersect distributes
    - selection below projection: σp(πb(e)) → πb(σp(e)), and selection
      and projection below renaming: σp(ρ(e)) → ρ(σp'(e)),
      πa(ρ(e)) → ρ'(πa'(e)) — so that the projection stacks the calculus
      translations emit meet and cascade
    - projection cascade: π_a(π_b(e)) → π_a(e)
    - identity projection removed
    - σtrue(e) → e *)
let rec pass env (e : Ast.t) : Ast.t =
  match e with
  | Ast.Rel _ | Ast.Values _ -> e
  | Ast.Empty e1 -> Ast.Empty (pass env e1)
  | Ast.Select (Ast.Ptrue, e1) -> pass env e1
  | Ast.Select (p, e1) when pred_unsat (Typecheck.infer env e1) p ->
    (* a statically dead branch; [Diff (x, x)] is the empty relation of
       x's schema, and the union rules below erase it entirely *)
    empty_of (pass env e1)
  | Ast.Union (a, b) ->
    let a' = pass env a and b' = pass env b in
    if is_empty_expr a' then b'
    else if is_empty_expr b' then a'
    else Ast.Union (a', b')
  | Ast.Diff (a, b) ->
    let a' = pass env a and b' = pass env b in
    if is_empty_expr b' then a' else Ast.Diff (a', b')
  | Ast.Select (p, Ast.Select (q, e1)) ->
    pass env (Ast.Select (Ast.pred_and p q, e1))
  | Ast.Select (p, Ast.Union (a, b))
    when pred_typed env p a && pred_typed env p b ->
    Ast.Union (pass env (Ast.Select (p, a)), pass env (Ast.Select (p, b)))
  | Ast.Select (p, Ast.Diff (a, b))
    when pred_typed env p a && pred_typed env p b ->
    Ast.Diff (pass env (Ast.Select (p, a)), pass env (Ast.Select (p, b)))
  | Ast.Select (p, Ast.Inter (a, b))
    when pred_typed env p a && pred_typed env p b ->
    Ast.Inter (pass env (Ast.Select (p, a)), pass env (Ast.Select (p, b)))
  | Ast.Select (p, Ast.Project (b, e1)) ->
    Ast.Project (b, pass env (Ast.Select (p, e1)))
  | Ast.Select (p, (Ast.Product (a, b) | Ast.Theta_join (_, a, b) as inner)) ->
    let base_pred =
      match inner with Ast.Theta_join (q, _, _) -> split_conj q | _ -> []
    in
    let conjuncts = split_conj p @ base_pred in
    let la = attrs env a and lb = attrs env b in
    let on_a, rest =
      List.partition (fun c -> subset (Ast.pred_attrs c) la) conjuncts
    in
    let on_b, cross =
      List.partition (fun c -> subset (Ast.pred_attrs c) lb) rest
    in
    let wrap side = function
      | [] -> pass env side
      | ps -> pass env (Ast.Select (Ast.pred_conj ps, side))
    in
    let a' = wrap a on_a and b' = wrap b on_b in
    (match cross with
    | [] -> Ast.Product (a', b')
    | ps -> Ast.Theta_join (Ast.pred_conj ps, a', b'))
  | Ast.Select (p, Ast.Rename (pairs, e1)) ->
    Ast.Rename (pairs, pass env (Ast.Select (rename_pred (renamed_from pairs) p, e1)))
  | Ast.Select (p, e1) -> Ast.Select (p, pass env e1)
  | Ast.Project (outer, Ast.Project (_, e1)) ->
    pass env (Ast.Project (outer, e1))
  | Ast.Project (names, Ast.Rename (pairs, e1)) ->
    let kept = List.filter (fun (_, b) -> List.mem b names) pairs in
    let inner = Ast.Project (List.map (renamed_from pairs) names, e1) in
    if kept = [] then pass env inner else Ast.Rename (kept, pass env inner)
  | Ast.Project (names, e1) ->
    if names = attrs env e1 then pass env e1
    else Ast.Project (names, pass env e1)
  | Ast.Rename (pairs, e1) ->
    let kept = List.filter (fun (a, b) -> a <> b) pairs in
    if kept = [] then pass env e1 else Ast.Rename (kept, pass env e1)
  | Ast.Product (a, b) -> Ast.Product (pass env a, pass env b)
  | Ast.Join (a, b) -> Ast.Join (pass env a, pass env b)
  | Ast.Theta_join (p, a, b) ->
    pass env (Ast.Select (p, Ast.Product (pass env a, pass env b)))
  | Ast.Inter (a, b) -> Ast.Inter (pass env a, pass env b)
  | Ast.Division (a, b) -> Ast.Division (pass env a, pass env b)

(** Iterate {!pass} to a fixpoint (bounded, the rules terminate quickly). *)
let optimize ?(max_rounds = 10) env e =
  let rec go n e =
    if n = 0 then e
    else
      let e' = pass env e in
      if Ast.equal e' e then e else go (n - 1) e'
  in
  go max_rounds e

let optimize_db db e = optimize (Typecheck.env_of_database db) e

(** Detect an equality theta-join that a natural join could express after a
    rename — a purely structural statistic surfaced by the survey bench. *)
let rec count_equijoins = function
  | Ast.Rel _ | Ast.Values _ -> 0
  | Ast.Empty e | Ast.Select (_, e) | Ast.Project (_, e) | Ast.Rename (_, e) ->
    count_equijoins e
  | Ast.Theta_join (p, a, b) ->
    let is_eq = function Ast.Cmp (Diagres_logic.Fol.Eq, Ast.Attr _, Ast.Attr _) -> true | _ -> false in
    (if List.exists is_eq (split_conj p) then 1 else 0)
    + count_equijoins a + count_equijoins b
  | Ast.Join (a, b) -> 1 + count_equijoins a + count_equijoins b
  | Ast.Product (a, b) | Ast.Union (a, b) | Ast.Inter (a, b)
  | Ast.Diff (a, b) | Ast.Division (a, b) ->
    count_equijoins a + count_equijoins b
