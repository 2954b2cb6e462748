(** Structural RA rewrites used as translation front-ends:

    - {!eliminate_division} replaces ÷ by its π/×/− definition, and
    - {!pull_unions} hoists every ∪ to the top, yielding a list of
      union-free expressions.

    Union-free RA is what a single range-coupled TRC query — and hence a
    single Relational-Diagram panel — can express; the list length is the
    number of panels a diagram needs (the tutorial's Part-5 point about
    disjunction). *)

module A = Diagres_ra.Ast
module T = Diagres_ra.Typecheck

(** [A ÷ B  =  π_K(A) − π_K(π_{attrs A}(π_K(A) × B) − A)] where K is the
    quotient schema.  Requires the typing environment to compute K. *)
let rec eliminate_division env (e : A.t) : A.t =
  match e with
  | A.Rel _ | A.Values _ -> e
  | A.Empty e1 -> A.Empty (eliminate_division env e1)
  | A.Select (p, e1) -> A.Select (p, eliminate_division env e1)
  | A.Project (attrs, e1) -> A.Project (attrs, eliminate_division env e1)
  | A.Rename (pairs, e1) -> A.Rename (pairs, eliminate_division env e1)
  | A.Product (a, b) ->
    A.Product (eliminate_division env a, eliminate_division env b)
  | A.Join (a, b) -> A.Join (eliminate_division env a, eliminate_division env b)
  | A.Theta_join (p, a, b) ->
    A.Theta_join (p, eliminate_division env a, eliminate_division env b)
  | A.Union (a, b) ->
    A.Union (eliminate_division env a, eliminate_division env b)
  | A.Inter (a, b) ->
    A.Inter (eliminate_division env a, eliminate_division env b)
  | A.Diff (a, b) -> A.Diff (eliminate_division env a, eliminate_division env b)
  | A.Division (a, b) ->
    let a = eliminate_division env a and b = eliminate_division env b in
    let sa = T.infer env a and sb = T.infer env b in
    let b_names = Diagres_data.Schema.names sb in
    let keep =
      List.filter
        (fun n -> not (List.mem n b_names))
        (Diagres_data.Schema.names sa)
    in
    let candidates = A.Project (keep, a) in
    let all = Diagres_data.Schema.names sa in
    let missing = A.Diff (A.Project (all, A.Product (candidates, b)), a) in
    A.Diff (candidates, A.Project (keep, missing))

(* ---------------- selection-predicate DNF ---------------- *)

let pred_false =
  A.Cmp (Diagres_logic.Fol.Neq, A.Const (Diagres_data.Value.Int 0),
         A.Const (Diagres_data.Value.Int 0))

let rec pred_nnf = function
  | (A.Cmp _ | A.Ptrue) as p -> p
  | A.And (p, q) -> A.And (pred_nnf p, pred_nnf q)
  | A.Or (p, q) -> A.Or (pred_nnf p, pred_nnf q)
  | A.Not p -> pred_nnf_neg p

and pred_nnf_neg = function
  | A.Cmp (op, x, y) -> A.Cmp (Diagres_logic.Fol.cmp_negate op, x, y)
  | A.Ptrue -> pred_false
  | A.And (p, q) -> A.Or (pred_nnf_neg p, pred_nnf_neg q)
  | A.Or (p, q) -> A.And (pred_nnf_neg p, pred_nnf_neg q)
  | A.Not p -> pred_nnf p

(** Disjunction-free conjunctions whose union is the predicate:
    σ[p ∨ q](e) = σ[p](e) ∪ σ[q](e). *)
let pred_disjuncts (p : A.pred) : A.pred list =
  let rec dnf = function
    | A.Or (p, q) -> dnf p @ dnf q
    | A.And (p, q) ->
      List.concat_map (fun x -> List.map (fun y -> A.And (x, y)) (dnf q)) (dnf p)
    | (A.Cmp _ | A.Ptrue) as atom -> [ atom ]
    | A.Not _ -> assert false
  in
  dnf (pred_nnf p)

(** Hoist unions through every other operator.  [−] distributes on the left
    only; a union on the {e right} of [−] becomes iterated difference.
    Unions under ÷ do not distribute in general, so division nodes are
    eliminated on the fly. *)
let rec pull_unions env (e : A.t) : A.t list =
  match e with
  | A.Rel _ -> [ e ]
  (* a literal is the union of its one-row literals *)
  | A.Values (x, (_ :: _ :: _ as vs)) -> List.map (fun v -> A.Values (x, [ v ])) vs
  | A.Values _ -> [ e ]
  (* ∅ is already union-free; keep it as a single panel *)
  | A.Empty _ -> [ e ]
  | A.Select (p, e1) ->
    let forms = pull_unions env e1 in
    List.concat_map
      (fun disjunct -> List.map (fun x -> A.Select (disjunct, x)) forms)
      (pred_disjuncts p)
  | A.Project (attrs, e1) ->
    List.map (fun x -> A.Project (attrs, x)) (pull_unions env e1)
  | A.Rename (pairs, e1) ->
    List.map (fun x -> A.Rename (pairs, x)) (pull_unions env e1)
  | A.Product (a, b) ->
    List.concat_map
      (fun x -> List.map (fun y -> A.Product (x, y)) (pull_unions env b))
      (pull_unions env a)
  | A.Join (a, b) ->
    List.concat_map
      (fun x -> List.map (fun y -> A.Join (x, y)) (pull_unions env b))
      (pull_unions env a)
  | A.Theta_join (p, a, b) ->
    List.concat_map
      (fun disjunct ->
        List.concat_map
          (fun x ->
            List.map
              (fun y -> A.Theta_join (disjunct, x, y))
              (pull_unions env b))
          (pull_unions env a))
      (pred_disjuncts p)
  | A.Union (a, b) -> pull_unions env a @ pull_unions env b
  | A.Inter (a, b) ->
    List.concat_map
      (fun x -> List.map (fun y -> A.Inter (x, y)) (pull_unions env b))
      (pull_unions env a)
  | A.Diff (a, b) ->
    (* (⋃ aᵢ) − (⋃ bⱼ) = ⋃ᵢ ((aᵢ − b₁) − b₂ − …) *)
    let bs = pull_unions env b in
    List.map
      (fun x -> List.fold_left (fun acc y -> A.Diff (acc, y)) x bs)
      (pull_unions env a)
  | A.Division _ -> pull_unions env (eliminate_division env e)

(** Full normalization: divisions eliminated, unions pulled up. *)
let union_free_forms env e = pull_unions env (eliminate_division env e)

(** Number of union-free "panels" an expression needs — the diagram-count
    statistic reported by experiment E6. *)
let panel_count env e = List.length (union_free_forms env e)
