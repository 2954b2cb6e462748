(** Pretty-printers for RA expressions.

    Two renderings: an ASCII concrete syntax accepted back by {!Parser}
    (round-trip property-tested), and the blackboard Unicode notation
    (π, σ, ρ, ⋈, ×, ∪, ∩, −, ÷) used in diagrams and docs. *)

let cmp_name = Diagres_logic.Fol.cmp_name

let operand = function
  | Ast.Attr a -> a
  | Ast.Const v -> Diagres_data.Value.to_literal v

let rec pred_to_string = function
  | Ast.Cmp (op, a, b) ->
    Printf.sprintf "%s %s %s" (operand a) (cmp_name op) (operand b)
  | Ast.And (p, q) -> Printf.sprintf "%s and %s" (pred_atom p) (pred_atom q)
  | Ast.Or (p, q) -> Printf.sprintf "%s or %s" (pred_atom p) (pred_atom q)
  | Ast.Not p -> Printf.sprintf "not %s" (pred_atom p)
  | Ast.Ptrue -> "true"

and pred_atom p =
  match p with
  | Ast.Cmp _ | Ast.Ptrue | Ast.Not _ -> pred_to_string p
  | _ -> "(" ^ pred_to_string p ^ ")"

(* Binary set operators are the loosest level; join-like operators bind
   tighter; unary operators are applications and never need parens. *)
let level = function
  | Ast.Union _ | Ast.Inter _ | Ast.Diff _ -> 1
  | Ast.Product _ | Ast.Join _ | Ast.Theta_join _ | Ast.Division _ -> 2
  | Ast.Rel _ | Ast.Values _ | Ast.Empty _ | Ast.Select _ | Ast.Project _
  | Ast.Rename _ ->
    3

let literals vs =
  String.concat ", " (List.map Diagres_data.Value.to_literal vs)

let rec ascii e =
  let sub child =
    if level child <= level e then "(" ^ ascii child ^ ")" else ascii child
  in
  match e with
  | Ast.Rel r -> r
  | Ast.Values (x, vs) -> Printf.sprintf "values[%s](%s)" x (literals vs)
  | Ast.Empty e1 -> Printf.sprintf "empty(%s)" (ascii e1)
  | Ast.Select (p, e1) ->
    Printf.sprintf "select[%s](%s)" (pred_to_string p) (ascii e1)
  | Ast.Project (attrs, e1) ->
    Printf.sprintf "project[%s](%s)" (String.concat ", " attrs) (ascii e1)
  | Ast.Rename (pairs, e1) ->
    Printf.sprintf "rename[%s](%s)"
      (String.concat ", "
         (List.map (fun (a, b) -> Printf.sprintf "%s -> %s" a b) pairs))
      (ascii e1)
  | Ast.Product (a, b) -> Printf.sprintf "%s * %s" (sub a) (sub b)
  | Ast.Join (a, b) -> Printf.sprintf "%s join %s" (sub a) (sub b)
  | Ast.Theta_join (p, a, b) ->
    Printf.sprintf "%s join[%s] %s" (sub a) (pred_to_string p) (sub b)
  | Ast.Union (a, b) -> Printf.sprintf "%s union %s" (sub a) (sub b)
  | Ast.Inter (a, b) -> Printf.sprintf "%s intersect %s" (sub a) (sub b)
  | Ast.Diff (a, b) -> Printf.sprintf "%s minus %s" (sub a) (sub b)
  | Ast.Division (a, b) -> Printf.sprintf "%s div %s" (sub a) (sub b)

let rec unicode e =
  let sub child =
    if level child <= level e then "(" ^ unicode child ^ ")" else unicode child
  in
  match e with
  | Ast.Rel r -> r
  | Ast.Values (x, vs) -> Printf.sprintf "{%s: %s}" x (literals vs)
  | Ast.Empty e1 -> Printf.sprintf "∅ %s" (sub_u e1)
  | Ast.Select (p, e1) -> Printf.sprintf "σ[%s] %s" (pred_to_string p) (sub_u e1)
  | Ast.Project (attrs, e1) ->
    Printf.sprintf "π[%s] %s" (String.concat "," attrs) (sub_u e1)
  | Ast.Rename (pairs, e1) ->
    Printf.sprintf "ρ[%s] %s"
      (String.concat ","
         (List.map (fun (a, b) -> Printf.sprintf "%s→%s" a b) pairs))
      (sub_u e1)
  | Ast.Product (a, b) -> Printf.sprintf "%s × %s" (sub a) (sub b)
  | Ast.Join (a, b) -> Printf.sprintf "%s ⋈ %s" (sub a) (sub b)
  | Ast.Theta_join (p, a, b) ->
    Printf.sprintf "%s ⋈[%s] %s" (sub a) (pred_to_string p) (sub b)
  | Ast.Union (a, b) -> Printf.sprintf "%s ∪ %s" (sub a) (sub b)
  | Ast.Inter (a, b) -> Printf.sprintf "%s ∩ %s" (sub a) (sub b)
  | Ast.Diff (a, b) -> Printf.sprintf "%s − %s" (sub a) (sub b)
  | Ast.Division (a, b) -> Printf.sprintf "%s ÷ %s" (sub a) (sub b)

(* unary-operator operand: parenthesize unless it is a leaf or another
   unary application *)
and sub_u e =
  match e with
  | Ast.Rel _ | Ast.Values _ | Ast.Select _ | Ast.Project _ | Ast.Rename _ ->
    unicode e
  | _ -> "(" ^ unicode e ^ ")"

(** Operator-tree rendering, one node per line — the textual skeleton of the
    DFQL dataflow view. *)
let tree e =
  let buf = Buffer.create 256 in
  let rec go indent e =
    let line s = Buffer.add_string buf (indent ^ s ^ "\n") in
    let deeper = indent ^ "  " in
    match e with
    | Ast.Rel r -> line r
    | Ast.Values (x, vs) -> line (Printf.sprintf "{%s: %s}" x (literals vs))
    | Ast.Empty e1 ->
      line "∅";
      go deeper e1
    | Ast.Select (p, e1) ->
      line (Printf.sprintf "σ [%s]" (pred_to_string p));
      go deeper e1
    | Ast.Project (attrs, e1) ->
      line (Printf.sprintf "π [%s]" (String.concat ", " attrs));
      go deeper e1
    | Ast.Rename (pairs, e1) ->
      line
        (Printf.sprintf "ρ [%s]"
           (String.concat ", "
              (List.map (fun (a, b) -> a ^ "→" ^ b) pairs)));
      go deeper e1
    | Ast.Product (a, b) -> line "×"; go deeper a; go deeper b
    | Ast.Join (a, b) -> line "⋈"; go deeper a; go deeper b
    | Ast.Theta_join (p, a, b) ->
      line (Printf.sprintf "⋈ [%s]" (pred_to_string p));
      go deeper a;
      go deeper b
    | Ast.Union (a, b) -> line "∪"; go deeper a; go deeper b
    | Ast.Inter (a, b) -> line "∩"; go deeper a; go deeper b
    | Ast.Diff (a, b) -> line "−"; go deeper a; go deeper b
    | Ast.Division (a, b) -> line "÷"; go deeper a; go deeper b
  in
  go "" e;
  Buffer.contents buf

let pp ppf e = Fmt.string ppf (ascii e)
