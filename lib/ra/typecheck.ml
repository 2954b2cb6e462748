(** Schema inference for RA expressions.

    Given the database schemas, computes the output schema of an expression
    or fails with a located, human-readable error.  This is the analysis the
    diagram generators rely on to label boxes and edges.

    Failures raise {!Diagres_diag.Diag.Error} with codes in the
    [E-RA-TYPE-xxx] family; {!Type_error} is the same exception under its
    historical name. *)

module D = Diagres_data
module Diag = Diagres_diag.Diag

exception Type_error = Diag.Error

let err ?hints ?needle code fmt =
  Diag.error ?hints ?needle ~code ~phase:Diag.Type fmt

type env = (string * D.Schema.t) list

let env_of_database db =
  List.map (fun (n, r) -> (n, D.Relation.schema r)) (D.Database.relations db)

let operand_ty schema = function
  | Ast.Const v -> D.Value.type_of v
  | Ast.Attr a -> (
    match D.Schema.find_opt a schema with
    | Some at -> at.D.Schema.ty
    | None ->
      err "E-RA-TYPE-002" ~needle:a
        ~hints:(Diag.did_you_mean ~candidates:(D.Schema.names schema) a)
        "unknown attribute %S in predicate (schema: %s)" a
        (D.Schema.to_string schema))

let operand_name = function
  | Ast.Const v -> D.Value.to_literal v
  | Ast.Attr a -> a

let rec check_pred schema = function
  | Ast.Cmp (op, a, b) ->
    (* Operands must resolve *and* have compatible static types: comparing
       an int column with a string literal can never hold, so it is almost
       certainly a typo — reject it instead of silently returning the empty
       relation.  [Tany] (the type of heterogeneous active-domain columns)
       is compatible with everything, keeping the DRC→RA construction
       well-typed. *)
    let ta = operand_ty schema a and tb = operand_ty schema b in
    if not (D.Value.ty_compatible ta tb) then
      err "E-RA-TYPE-008" ~needle:(operand_name b)
        "cannot compare %s (of type %s) %s %s (of type %s): operand types \
         are incompatible"
        (operand_name a) (D.Value.ty_name ta)
        (Diagres_logic.Fol.cmp_name op) (operand_name b)
        (D.Value.ty_name tb)
  | Ast.And (a, b) | Ast.Or (a, b) ->
    check_pred schema a;
    check_pred schema b
  | Ast.Not p -> check_pred schema p
  | Ast.Ptrue -> ()

let rec infer (env : env) (e : Ast.t) : D.Schema.t =
  match e with
  | Ast.Rel r -> (
    match List.assoc_opt r env with
    | Some s -> s
    | None ->
      err "E-RA-TYPE-001" ~needle:r
        ~hints:(Diag.did_you_mean ~candidates:(List.map fst env) r)
        "unknown relation %S" r)
  | Ast.Values (x, vs) ->
    let ty =
      match vs with
      | [] -> D.Value.Tany
      | v :: rest ->
        List.fold_left
          (fun t w -> D.Value.ty_join t (D.Value.type_of w))
          (D.Value.type_of v) rest
    in
    [ D.Schema.attr ~ty x ]
  | Ast.Empty e -> infer env e
  | Ast.Select (p, e) ->
    let s = infer env e in
    check_pred s p;
    s
  | Ast.Project (attrs, e) ->
    (* [attrs = []] yields the nullary relation (a Boolean: empty, or the
       empty tuple) — needed as target of Boolean calculus queries *)
    let s = infer env e in
    List.iter
      (fun a ->
        if not (D.Schema.mem a s) then
          err "E-RA-TYPE-002" ~needle:a
            ~hints:(Diag.did_you_mean ~candidates:(D.Schema.names s) a)
            "unknown attribute %S in projection" a)
      attrs;
    let out = D.Schema.project attrs s in
    D.Schema.check_distinct out;
    out
  | Ast.Rename (pairs, e) ->
    let s = infer env e in
    (* simultaneous renaming: resolve all sources against the input schema *)
    let renamed =
      List.map
        (fun (a : D.Schema.attribute) ->
          match List.assoc_opt a.D.Schema.name pairs with
          | Some fresh -> { a with D.Schema.name = fresh }
          | None -> a)
        s
    in
    List.iter
      (fun (old, _) ->
        if not (D.Schema.mem old s) then
          err "E-RA-TYPE-003" ~needle:old
            ~hints:(Diag.did_you_mean ~candidates:(D.Schema.names s) old)
            "rename source %S not in schema %s" old (D.Schema.to_string s))
      pairs;
    D.Schema.check_distinct renamed;
    renamed
  | Ast.Product (a, b) ->
    D.Schema.concat_disjoint (infer env a) (infer env b)
  | Ast.Join (a, b) ->
    let sa = infer env a and sb = infer env b in
    let shared = D.Schema.names (D.Schema.common sa sb) in
    sa @ List.filter (fun (x : D.Schema.attribute) -> not (List.mem x.D.Schema.name shared)) sb
  | Ast.Theta_join (p, a, b) ->
    let s = D.Schema.concat_disjoint (infer env a) (infer env b) in
    check_pred s p;
    s
  | Ast.Union (a, b) | Ast.Inter (a, b) | Ast.Diff (a, b) ->
    let sa = infer env a and sb = infer env b in
    if not (D.Schema.compatible sa sb) then
      err "E-RA-TYPE-005" "set operation on incompatible schemas %s vs %s"
        (D.Schema.to_string sa) (D.Schema.to_string sb);
    D.Schema.join_types sa sb
  | Ast.Division (a, b) ->
    let sa = infer env a and sb = infer env b in
    List.iter
      (fun n ->
        if not (D.Schema.mem n sa) then
          err "E-RA-TYPE-006" ~needle:n
            "division: divisor attribute %S not in dividend" n)
      (D.Schema.names sb);
    let keep =
      List.filter
        (fun (x : D.Schema.attribute) -> not (D.Schema.mem x.D.Schema.name sb))
        sa
    in
    if keep = [] then
      err "E-RA-TYPE-007" "division result would have empty schema";
    keep

(* Re-raise schema-level failures (unknown attributes, duplicate names, …)
   as type errors so callers see one exception type. *)
let infer env e =
  try infer env e
  with D.Schema.Schema_error msg -> err "E-RA-TYPE-004" "%s" msg

let infer_db db e = infer (env_of_database db) e

(** [check env e] is [infer] that reports success as a boolean. *)
let well_typed env e =
  match infer env e with _ -> true | exception Type_error _ -> false
