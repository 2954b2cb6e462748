(** RA → range-coupled TRC.

    Works on union-free expressions (after {!Ra_rewrite.union_free_forms});
    the public entry point returns one TRC query per union-free form — the
    "panels" of a Relational Diagram.  Each subexpression is represented by
    free tuple-variable ranges, a body formula, and one output term per
    column. *)

module A = Diagres_ra.Ast
module N = Diagres_logic.Names

exception Union_not_supported

type rep = {
  ranges : (string * string) list;
  body : Trc.formula;
  cols : (string * Trc.term) list;  (** attribute name → output term *)
}

let operand_term cols = function
  | A.Attr a -> (
    match List.assoc_opt a cols with
    | Some t -> t
    | None -> Trc.type_error "unknown attribute %S in predicate" a)
  | A.Const c -> Trc.Const c

let rec pred_formula cols = function
  | A.Cmp (op, x, y) -> Trc.Cmp (op, operand_term cols x, operand_term cols y)
  | A.And (p, q) -> Trc.And (pred_formula cols p, pred_formula cols q)
  | A.Or (p, q) -> Trc.Or (pred_formula cols p, pred_formula cols q)
  | A.Not p -> Trc.Not (pred_formula cols p)
  | A.Ptrue -> Trc.True

let conj a b =
  match (a, b) with Trc.True, f | f, Trc.True -> f | _ -> Trc.And (a, b)

(* Equate the output columns of two representations pairwise. *)
let columns_equal ra rb =
  List.fold_left2
    (fun acc (_, ta) (_, tb) -> conj acc (Trc.Cmp (Diagres_logic.Fol.Eq, ta, tb)))
    Trc.True ra.cols rb.cols

let rec translate env supply (e : A.t) : rep =
  match e with
  | A.Rel r ->
    let attrs = Diagres_data.Schema.names (Diagres_ra.Typecheck.infer env e) in
    let v = N.fresh supply (String.lowercase_ascii (String.sub r 0 1) ^ "_") in
    { ranges = [ (v, r) ];
      body = Trc.True;
      cols = List.map (fun a -> (a, Trc.Field (v, a))) attrs }
  | A.Values (x, [ c ]) -> { ranges = []; body = Trc.True; cols = [ (x, Trc.Const c) ] }
  | A.Values (x, []) ->
    { ranges = []; body = Trc.False; cols = [ (x, Trc.Const (Diagres_data.Value.Int 0)) ] }
  | A.Values _ -> raise Union_not_supported
  | A.Empty e1 ->
    (* the calculus has no ∅ literal; e − e is the classical encoding *)
    translate env supply (A.Diff (e1, e1))
  | A.Select (p, e1) ->
    let r1 = translate env supply e1 in
    { r1 with body = conj r1.body (pred_formula r1.cols p) }
  | A.Project (attrs, e1) ->
    let r1 = translate env supply e1 in
    (* ranges stay free: projection is just head narrowing under set
       semantics *)
    { r1 with cols = List.map (fun a -> (a, List.assoc a r1.cols)) attrs }
  | A.Rename (pairs, e1) ->
    let r1 = translate env supply e1 in
    let cols =
      List.map
        (fun (a, t) ->
          match List.assoc_opt a pairs with
          | Some fresh -> (fresh, t)
          | None -> (a, t))
        r1.cols
    in
    { r1 with cols }
  | A.Product (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    { ranges = ra.ranges @ rb.ranges;
      body = conj ra.body rb.body;
      cols = ra.cols @ rb.cols }
  | A.Join (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let shared = List.filter (fun (n, _) -> List.mem_assoc n ra.cols) rb.cols in
    let joins =
      List.fold_left
        (fun acc (n, tb) ->
          conj acc (Trc.Cmp (Diagres_logic.Fol.Eq, List.assoc n ra.cols, tb)))
        Trc.True shared
    in
    let b_rest =
      List.filter (fun (n, _) -> not (List.mem_assoc n ra.cols)) rb.cols
    in
    { ranges = ra.ranges @ rb.ranges;
      body = conj (conj ra.body rb.body) joins;
      cols = ra.cols @ b_rest }
  | A.Theta_join (p, a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let cols = ra.cols @ rb.cols in
    { ranges = ra.ranges @ rb.ranges;
      body = conj (conj ra.body rb.body) (pred_formula cols p);
      cols }
  | A.Inter (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    (* A ∩ B  =  A(t̄) ∧ ∃(B's ranges): B(ū) ∧ t̄ = ū *)
    let inner = conj rb.body (columns_equal ra rb) in
    let quantified =
      if rb.ranges = [] then inner else Trc.Exists (rb.ranges, inner)
    in
    { ranges = ra.ranges; body = conj ra.body quantified; cols = ra.cols }
  | A.Diff (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let inner = conj rb.body (columns_equal ra rb) in
    let quantified =
      if rb.ranges = [] then inner else Trc.Exists (rb.ranges, inner)
    in
    { ranges = ra.ranges; body = conj ra.body (Trc.Not quantified); cols = ra.cols }
  | A.Union _ -> raise Union_not_supported
  | A.Division _ -> translate env supply (Ra_rewrite.eliminate_division env e)

(** Translate one union-free expression to a single TRC query. *)
let union_free_query env (e : A.t) : Trc.query =
  let supply = N.create () in
  let rep = translate env supply e in
  { Trc.head = List.map snd rep.cols; ranges = rep.ranges; body = rep.body }

(** General entry point: a list of TRC queries whose union is the input —
    one per Relational-Diagram panel. *)
let queries env (e : A.t) : Trc.query list =
  List.map (union_free_query env) (Ra_rewrite.union_free_forms env e)

let queries_db db e = queries (Diagres_ra.Typecheck.env_of_database db) e
