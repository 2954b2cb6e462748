(** RA → DRC (the "easy" half of Codd's equivalence).

    Each subexpression over schema (a₁,…,aₖ) becomes a formula with one free
    domain variable per column.  Union and intersection unify the two sides'
    variables by substitution; difference adds a negation; projection closes
    the dropped columns existentially; ÷ is eliminated structurally first. *)

module A = Diagres_ra.Ast
module F = Diagres_logic.Fol
module N = Diagres_logic.Names

type rep = { formula : F.t; cols : (string * string) list }
(** [cols] maps output attribute name → domain variable, in schema order. *)

let operand_term cols = function
  | A.Attr a -> (
    match List.assoc_opt a cols with
    | Some v -> F.Var v
    | None -> Drc.type_error "unknown attribute %S in predicate" a)
  | A.Const c -> F.Const c

let rec pred_formula cols = function
  | A.Cmp (op, x, y) -> F.Cmp (op, operand_term cols x, operand_term cols y)
  | A.And (p, q) -> F.And (pred_formula cols p, pred_formula cols q)
  | A.Or (p, q) -> F.Or (pred_formula cols p, pred_formula cols q)
  | A.Not p -> F.Not (pred_formula cols p)
  | A.Ptrue -> F.True

let rec translate env supply (e : A.t) : rep =
  let schema_names ex =
    Diagres_data.Schema.names (Diagres_ra.Typecheck.infer env ex)
  in
  match e with
  | A.Rel r ->
    let attrs = schema_names e in
    let cols = List.map (fun a -> (a, N.fresh supply (N.sanitize a ^ "_"))) attrs in
    { formula = F.Pred (r, List.map (fun (_, v) -> F.Var v) cols); cols }
  | A.Values (x, vs) ->
    let v = N.fresh supply (N.sanitize x ^ "_") in
    let formula =
      match vs with
      | [] -> F.And (F.eq (F.Var v) (F.cint 0), F.False)  (* keeps v free *)
      | _ -> F.disj (List.map (fun c -> F.eq (F.Var v) (F.Const c)) vs)
    in
    { formula; cols = [ (x, v) ] }
  | A.Empty e1 ->
    (* the calculus has no ∅ literal; e − e is the classical encoding *)
    translate env supply (A.Diff (e1, e1))
  | A.Select (p, e1) ->
    let r1 = translate env supply e1 in
    { r1 with formula = F.And (r1.formula, pred_formula r1.cols p) }
  | A.Project (attrs, e1) ->
    let r1 = translate env supply e1 in
    let keep = List.map (fun a -> (a, List.assoc a r1.cols)) attrs in
    let dropped =
      List.filter_map
        (fun (a, v) -> if List.mem_assoc a keep then None else Some v)
        r1.cols
    in
    (* a column may be dropped while its variable survives under another
       name after renaming — variables are per-column here, so no aliasing *)
    { formula = F.exists_many dropped r1.formula; cols = keep }
  | A.Rename (pairs, e1) ->
    let r1 = translate env supply e1 in
    let cols =
      List.map
        (fun (a, v) ->
          match List.assoc_opt a pairs with
          | Some fresh -> (fresh, v)
          | None -> (a, v))
        r1.cols
    in
    { r1 with cols }
  | A.Product (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    { formula = F.And (ra.formula, rb.formula); cols = ra.cols @ rb.cols }
  | A.Join (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let shared = List.filter (fun (n, _) -> List.mem_assoc n ra.cols) rb.cols in
    (* unify shared columns: substitute b's variable by a's *)
    let fb =
      List.fold_left
        (fun acc (n, vb) -> F.subst vb (F.Var (List.assoc n ra.cols)) acc)
        rb.formula shared
    in
    let b_rest = List.filter (fun (n, _) -> not (List.mem_assoc n ra.cols)) rb.cols in
    { formula = F.And (ra.formula, fb); cols = ra.cols @ b_rest }
  | A.Theta_join (p, a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let cols = ra.cols @ rb.cols in
    { formula = F.And (F.And (ra.formula, rb.formula), pred_formula cols p);
      cols }
  | A.Union (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let fb =
      List.fold_left2
        (fun acc (_, vb) (_, va) -> F.subst vb (F.Var va) acc)
        rb.formula rb.cols ra.cols
    in
    { formula = F.Or (ra.formula, fb); cols = ra.cols }
  | A.Inter (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let fb =
      List.fold_left2
        (fun acc (_, vb) (_, va) -> F.subst vb (F.Var va) acc)
        rb.formula rb.cols ra.cols
    in
    { formula = F.And (ra.formula, fb); cols = ra.cols }
  | A.Diff (a, b) ->
    let ra = translate env supply a and rb = translate env supply b in
    let fb =
      List.fold_left2
        (fun acc (_, vb) (_, va) -> F.subst vb (F.Var va) acc)
        rb.formula rb.cols ra.cols
    in
    { formula = F.And (ra.formula, F.Not fb); cols = ra.cols }
  | A.Division _ ->
    translate env supply (Ra_rewrite.eliminate_division env e)

(** Rename the final column variables to readable, attribute-derived names
    where possible. *)
let readable_heads rep =
  let used = ref [] in
  let pick base =
    let base = N.sanitize base in
    let rec go i =
      let cand = if i = 0 then base else Printf.sprintf "%s%d" base i in
      if List.mem cand !used then go (i + 1)
      else begin
        used := cand :: !used;
        cand
      end
    in
    go 0
  in
  let mapping = List.map (fun (a, v) -> (v, pick a)) rep.cols in
  let formula =
    List.fold_left
      (fun acc (v, v') -> if v = v' then acc else F.subst v (F.Var v') acc)
      rep.formula mapping
  in
  { formula; cols = List.map2 (fun (a, _) (_, v') -> (a, v')) rep.cols mapping }

let query env (e : A.t) : Drc.query =
  let supply = N.create () in
  let rep = readable_heads (translate env supply e) in
  { Drc.head = List.map snd rep.cols; body = rep.formula }

let query_db db e = query (Diagres_ra.Typecheck.env_of_database db) e
