(** RA evaluator over the in-memory relation substrate. *)

module D = Diagres_data

exception Eval_error of string

let operand_value schema tup = function
  | Ast.Const v -> v
  | Ast.Attr a -> D.Tuple.field schema a tup

let rec pred_holds schema tup = function
  | Ast.Cmp (op, a, b) ->
    Diagres_logic.Fol.cmp_eval op
      (operand_value schema tup a)
      (operand_value schema tup b)
  | Ast.And (p, q) -> pred_holds schema tup p && pred_holds schema tup q
  | Ast.Or (p, q) -> pred_holds schema tup p || pred_holds schema tup q
  | Ast.Not p -> not (pred_holds schema tup p)
  | Ast.Ptrue -> true

let rec eval db (e : Ast.t) : D.Relation.t =
  match e with
  | Ast.Rel r -> (
    match D.Database.find_opt r db with
    | Some rel -> rel
    | None -> raise (Eval_error ("unknown relation " ^ r)))
  | Ast.Values (_, vs) ->
    D.Relation.of_lists
      (Typecheck.infer (Typecheck.env_of_database db) e)
      (List.map (fun v -> [ v ]) vs)
  | Ast.Empty e ->
    (* zero-cost: only the schema of [e] is needed, never its tuples *)
    D.Relation.empty (Typecheck.infer (Typecheck.env_of_database db) e)
  | Ast.Select (p, e) ->
    let rel = eval db e in
    let schema = D.Relation.schema rel in
    D.Relation.filter (fun t -> pred_holds schema t p) rel
  | Ast.Project (attrs, e) -> D.Relation.project attrs (eval db e)
  | Ast.Rename (pairs, e) ->
    let rel = eval db e in
    let schema = D.Relation.schema rel in
    let names =
      List.map
        (fun (a : D.Schema.attribute) ->
          match List.assoc_opt a.D.Schema.name pairs with
          | Some fresh -> fresh
          | None -> a.D.Schema.name)
        schema
    in
    D.Relation.rename_all names rel
  | Ast.Product (a, b) -> D.Relation.product (eval db a) (eval db b)
  | Ast.Join (a, b) -> D.Relation.natural_join (eval db a) (eval db b)
  | Ast.Theta_join (p, a, b) ->
    (* filter while enumerating the product: only matching pairs are ever
       materialized, instead of the full |a|·|b| cartesian product *)
    let ra = eval db a and rb = eval db b in
    let schema =
      D.Schema.concat_disjoint (D.Relation.schema ra) (D.Relation.schema rb)
    in
    let matches =
      D.Relation.fold
        (fun ta acc ->
          D.Relation.fold
            (fun tb acc ->
              let t = D.Tuple.concat ta tb in
              if pred_holds schema t p then t :: acc else acc)
            rb acc)
        ra []
    in
    D.Relation.of_tuples schema matches
  | Ast.Union (a, b) -> D.Relation.union (eval db a) (eval db b)
  | Ast.Inter (a, b) -> D.Relation.inter (eval db a) (eval db b)
  | Ast.Diff (a, b) -> D.Relation.diff (eval db a) (eval db b)
  | Ast.Division (a, b) -> D.Relation.division (eval db a) (eval db b)

(** Evaluate through the cost-based physical planner ({!Planner}): logical
    rewrites, hash equi-joins over the cached indexes, greedy join
    ordering, compiled predicates, memoized shared subtrees, and — above
    {!Plan.par_threshold} rows — vectorized batches run across the domain
    pool.  The plan itself is served from the LRU {!Plan_cache} (keyed on
    the canonicalized AST and the database stamp), so a repeated query
    skips optimize + plan entirely; plans are immutable and each
    {!Plan.run} keeps its results in its own profile, making reuse
    observationally identical to planning afresh.
    Agrees with the tree-walking {!eval} (property-tested); [eval] remains
    as the naive reference. *)
let eval_planned db e =
  let module T = Diagres_telemetry.Telemetry in
  (* reject ill-typed queries with a proper diagnostic before the planner
     sees them — plan construction assumes a well-typed tree and crashes
     with unlocated Invalid_argument/Schema_error otherwise *)
  T.with_span ~cat:"phase" "typecheck" (fun () ->
      ignore (Typecheck.infer (Typecheck.env_of_database db) e));
  let plan, _cached = Plan_cache.find_or_plan db e in
  Plan.run plan
