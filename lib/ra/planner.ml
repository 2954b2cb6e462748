(** Cost-based physical planner: lowers a logical {!Ast.t} to a {!Plan.t}.

    The classical System-R split, scaled to this library: {!Optimize} does
    the rewrite-level work (selection pushdown, dead-branch pruning), and
    this module makes the physical decisions on the result:

    - {b hash-join extraction} — n-ary [Product]/[Join]/[Theta_join] chains
      are flattened into a leaf set plus a conjunct pool; equality
      conjuncts between two sides become hash-join keys probing the
      cached relation indexes, the rest compile into residual filters;
    - {b greedy join ordering} — the chain is reassembled smallest-first:
      starting from the leaf with the fewest estimated rows, each step
      joins in whichever remaining leaf yields the smallest estimated
      intermediate result (estimates from {!Diagres_data.Stats}:
      1/distinct for equality, 1/3 for ranges, independence for ∧/∨);
    - {b hash-consing} — structurally equal subexpressions map to the same
      physical node via a memo table, so shared subtrees (ubiquitous in
      calculus-translated queries, which repeat a context relation in every
      negation and semi-join) are evaluated once.

    Because set operations are positionally compatible, a chain whose
    greedy order differs from the syntactic one ends in a positional
    reorder back to the schema {!Typecheck.infer} assigns, making plans
    drop-in equivalent to {!Eval.eval} (property-tested). *)

module D = Diagres_data
module F = Diagres_logic.Fol

type state = {
  db : D.Database.t;
  env : Typecheck.env;
  memo : (Ast.t, Plan.t) Hashtbl.t;  (** hash-consing of logical subtrees *)
}

let clamp1 x = Float.max 1. x

(* Every planned node is built with the vectorization choice fixed. *)
let mk op = Plan.mk ~vec:(Plan.vectorizable op) op

(* ---------------- selectivity estimation ---------------- *)

(* [distinct] maps an attribute name to its estimated distinct count. *)
let rec selectivity distinct = function
  | Ast.Cmp (F.Eq, Ast.Attr a, Ast.Const _)
  | Ast.Cmp (F.Eq, Ast.Const _, Ast.Attr a) ->
    1. /. clamp1 (distinct a)
  | Ast.Cmp (F.Eq, Ast.Attr a, Ast.Attr b) ->
    1. /. clamp1 (Float.max (distinct a) (distinct b))
  | Ast.Cmp (op, Ast.Const x, Ast.Const y) ->
    if F.cmp_eval op x y then 1. else 0.
  | Ast.Cmp (F.Neq, Ast.Attr a, Ast.Const _)
  | Ast.Cmp (F.Neq, Ast.Const _, Ast.Attr a) ->
    1. -. (1. /. clamp1 (distinct a))
  | Ast.Cmp (_, _, _) -> 1. /. 3.  (* range: the textbook third *)
  | Ast.And (p, q) -> selectivity distinct p *. selectivity distinct q
  | Ast.Or (p, q) ->
    let sp = selectivity distinct p and sq = selectivity distinct q in
    sp +. sq -. (sp *. sq)
  | Ast.Not p -> 1. -. selectivity distinct p
  | Ast.Ptrue -> 1.

(* Distinct-count lookup over a plan node's output. *)
let node_distinct (n : Plan.t) a =
  match D.Schema.index_opt a n.Plan.schema with
  | Some i -> n.Plan.est_distinct.(i)
  | None -> 10.  (* unknown attribute: a neutral default *)

(* Estimated distinct counts can never exceed the estimated row count. *)
let cap_distinct rows = Array.map (fun d -> Float.min d (clamp1 rows))

(* ---------------- leaf helpers ---------------- *)

let covers (n : Plan.t) c =
  List.for_all
    (fun a -> D.Schema.mem a n.Plan.schema)
    (Ast.pred_attrs c)

let mk_filter (n : Plan.t) conjs : Plan.t =
  match conjs with
  | [] -> n
  | _ ->
    let p = Ast.pred_conj conjs in
    let est = selectivity (node_distinct n) p *. n.Plan.est in
    mk
      (Plan.Filter (Plan.compile_pred n.Plan.schema p, n))
      n.Plan.schema est
      (cap_distinct est n.Plan.est_distinct)

(* ---------------- join combination ---------------- *)

(* Join two plan nodes: shared attribute names merge (natural join), and
   any pending equality conjunct with one attribute on each side becomes a
   further hash key.  Returns the combined node and the conjuncts still
   pending.  With no keys at all this degrades to a filtered
   nested-loop product. *)
let combine (l : Plan.t) (r : Plan.t) pending : Plan.t * Ast.pred list =
  let ln = D.Schema.names l.Plan.schema
  and rn = D.Schema.names r.Plan.schema in
  let shared = List.filter (fun a -> List.mem a ln) rn in
  let kept_right = List.filter (fun a -> not (List.mem a shared)) rn in
  let out_names = ln @ kept_right in
  let applicable, still =
    List.partition
      (fun c -> List.for_all (fun a -> List.mem a out_names) (Ast.pred_attrs c))
      pending
  in
  (* equality conjuncts usable as hash keys: one side each *)
  let is_key = function
    | Ast.Cmp (F.Eq, Ast.Attr a, Ast.Attr b) ->
      (List.mem a ln && List.mem b rn && not (List.mem b ln))
      || (List.mem b ln && List.mem a rn && not (List.mem a ln))
    | _ -> false
  in
  let key_conjs, residual_conjs = List.partition is_key applicable in
  let lpos a = D.Schema.index a l.Plan.schema
  and rpos a = D.Schema.index a r.Plan.schema in
  let merge_pairs = List.map (fun a -> (lpos a, rpos a)) shared in
  let theta_pairs =
    List.map
      (function
        | Ast.Cmp (F.Eq, Ast.Attr a, Ast.Attr b) ->
          if List.mem a ln then (lpos a, rpos b) else (lpos b, rpos a)
        | _ -> assert false)
      key_conjs
  in
  let pairs = merge_pairs @ theta_pairs in
  let right_rest = Array.of_list (List.map rpos kept_right) in
  let out_schema =
    l.Plan.schema
    @ List.filter
        (fun (a : D.Schema.attribute) -> List.mem a.D.Schema.name kept_right)
        r.Plan.schema
  in
  (* distinct lookup over the combined output, for residual selectivity *)
  let out_dist =
    Array.append l.Plan.est_distinct
      (Array.map (fun i -> r.Plan.est_distinct.(i)) right_rest)
  in
  let distinct a =
    match D.Schema.index_opt a out_schema with
    | Some i -> out_dist.(i)
    | None -> 10.
  in
  let key_sel =
    List.fold_left
      (fun s (li, ri) ->
        s
        /. clamp1
             (Float.max l.Plan.est_distinct.(li) r.Plan.est_distinct.(ri)))
      1. pairs
  in
  let residual = Ast.pred_conj residual_conjs in
  let est =
    l.Plan.est *. r.Plan.est *. key_sel *. selectivity distinct residual
  in
  let est_distinct = cap_distinct est out_dist in
  let compiled_residual =
    match residual_conjs with
    | [] -> None
    | _ -> Some (Plan.compile_pred out_schema residual)
  in
  let node =
    match pairs with
    | [] ->
      mk
        (Plan.Nl_join (compiled_residual, l, r))
        out_schema est est_distinct
    | _ ->
      mk
        (Plan.Hash_join
           { Plan.left = l; right = r;
             lkey = Array.of_list (List.map fst pairs);
             rkey = List.map snd pairs;
             right_rest; residual = compiled_residual })
        out_schema est est_distinct
  in
  (node, still)

(* ---------------- planning ---------------- *)

let rec go st (e : Ast.t) : Plan.t =
  match Hashtbl.find_opt st.memo e with
  | Some n -> n
  | None ->
    let n = build st e in
    Hashtbl.add st.memo e n;
    n

and build st (e : Ast.t) : Plan.t =
  match e with
  | Ast.Rel r -> (
    match D.Database.find_opt r st.db with
    | None ->
      (* delegate to inference for the canonical unknown-relation error *)
      ignore (Typecheck.infer st.env e : D.Schema.t);
      assert false
    | Some rel ->
      let s = D.Relation.stats rel in
      mk
        (Plan.Scan (r, rel))
        (D.Relation.schema rel)
        (float_of_int s.D.Stats.rows)
        (Array.map float_of_int s.D.Stats.distinct))
  | Ast.Empty _ ->
    let schema = Typecheck.infer st.env e in
    mk Plan.Empty schema 0. (Array.make (D.Schema.arity schema) 0.)
  | Ast.Values (x, vs) ->
    (* a literal: scanned like a base relation under a name no relation
       can have, so view maintenance never sees a delta for it *)
    let schema = Typecheck.infer st.env e in
    let rel = D.Relation.of_lists schema (List.map (fun v -> [ v ]) vs) in
    let n = float_of_int (D.Relation.cardinality rel) in
    mk (Plan.Scan ("values[" ^ x ^ "]", rel)) schema n [| n |]
  | Ast.Select _ | Ast.Product _ | Ast.Join _ | Ast.Theta_join _ ->
    plan_chain st e
  | Ast.Project (attrs, e1) ->
    let c = go st e1 in
    let schema = Typecheck.infer st.env e in
    let idx =
      Array.of_list (List.map (fun a -> D.Schema.index a c.Plan.schema) attrs)
    in
    (* set semantics: at most Π of the kept columns' distinct counts *)
    let cap =
      Array.fold_left
        (fun acc i -> acc *. clamp1 c.Plan.est_distinct.(i))
        1. idx
    in
    let est = Float.min c.Plan.est cap in
    let dist =
      cap_distinct est (Array.map (fun i -> c.Plan.est_distinct.(i)) idx)
    in
    mk (Plan.Project (idx, c)) schema est dist
  | Ast.Rename (_, e1) ->
    let c = go st e1 in
    let schema = Typecheck.infer st.env e in
    mk (Plan.Relabel c) schema c.Plan.est c.Plan.est_distinct
  | Ast.Union (a, b) ->
    let na = go st a and nb = go st b in
    let est = na.Plan.est +. nb.Plan.est in
    let dist =
      cap_distinct est
        (Array.init
           (Array.length na.Plan.est_distinct)
           (fun i -> na.Plan.est_distinct.(i) +. nb.Plan.est_distinct.(i)))
    in
    mk (Plan.Union (na, nb)) (Typecheck.infer st.env e) est dist
  | Ast.Inter (a, b) ->
    let na = go st a and nb = go st b in
    let est = Float.min na.Plan.est nb.Plan.est in
    let dist =
      cap_distinct est
        (Array.init
           (Array.length na.Plan.est_distinct)
           (fun i ->
             Float.min na.Plan.est_distinct.(i) nb.Plan.est_distinct.(i)))
    in
    mk (Plan.Inter (na, nb)) (Typecheck.infer st.env e) est dist
  | Ast.Diff (a, b) ->
    let na = go st a and nb = go st b in
    mk
      (Plan.Diff (na, nb))
      (Typecheck.infer st.env e)
      na.Plan.est na.Plan.est_distinct
  | Ast.Division (a, b) ->
    let na = go st a and nb = go st b in
    let schema = Typecheck.infer st.env e in
    let keep =
      List.map (fun n -> D.Schema.index n na.Plan.schema)
        (D.Schema.names schema)
    in
    let est = na.Plan.est /. clamp1 nb.Plan.est in
    let dist =
      cap_distinct est
        (Array.of_list (List.map (fun i -> na.Plan.est_distinct.(i)) keep))
    in
    mk (Plan.Division (na, nb)) schema est dist

(* Flatten a [Select]/[Product]/[Join]/[Theta_join] chain into its leaf
   expressions and the pooled conjuncts, then reassemble greedily. *)
and plan_chain st (e : Ast.t) : Plan.t =
  let rec flatten e =
    match e with
    | Ast.Select (p, e1) ->
      let l, c = flatten e1 in
      (l, c @ Optimize.split_conj p)
    | Ast.Theta_join (p, a, b) ->
      let la, ca = flatten a and lb, cb = flatten b in
      (la @ lb, ca @ cb @ Optimize.split_conj p)
    | Ast.Product (a, b) | Ast.Join (a, b) ->
      let la, ca = flatten a and lb, cb = flatten b in
      (la @ lb, ca @ cb)
    | _ -> ([ e ], [])
  in
  let leaf_exprs, conjuncts = flatten e in
  let leaves = List.map (go st) leaf_exprs in
  (* push single-side conjuncts down onto the first covering leaf *)
  let leaves, cross =
    List.fold_left
      (fun (done_, pending) leaf ->
        let mine, rest = List.partition (covers leaf) pending in
        (done_ @ [ mk_filter leaf mine ], rest))
      ([], conjuncts) leaves
  in
  let planned =
    match leaves with
    | [] -> assert false  (* flatten always returns at least one leaf *)
    | [ n ] -> mk_filter n cross
    | first :: rest ->
      (* Drop one occurrence by physical identity: hash-consed duplicate
         leaves are the same node, so structural removal would drop both. *)
      let remove_once x xs =
        let dropped = ref false in
        List.filter
          (fun n ->
            if (not !dropped) && n == x then (dropped := true; false)
            else true)
          xs
      in
      (* greedy smallest-first ordering *)
      let start =
        List.fold_left
          (fun best n -> if n.Plan.est < best.Plan.est then n else best)
          first rest
      in
      let rec loop cur todo pending =
        match todo with
        | [] -> mk_filter cur pending
        | _ ->
          let best =
            List.fold_left
              (fun acc leaf ->
                let node, still = combine cur leaf pending in
                match acc with
                | Some (bn, _, _) when node.Plan.est >= bn.Plan.est -> acc
                | _ -> Some (node, still, leaf))
              None todo
          in
          (match best with
          | None -> assert false
          | Some (node, still, used) -> loop node (remove_once used todo) still)
      in
      loop start (remove_once start leaves) cross
  in
  (* set operations are positionally compatible, so restore the canonical
     column order of the logical expression *)
  let canonical = Typecheck.infer st.env e in
  if D.Schema.names canonical = D.Schema.names planned.Plan.schema then planned
  else begin
    let idx =
      Array.of_list
        (List.map
           (fun n -> D.Schema.index n planned.Plan.schema)
           (D.Schema.names canonical))
    in
    let dist = Array.map (fun i -> planned.Plan.est_distinct.(i)) idx in
    mk (Plan.Project (idx, planned)) canonical planned.Plan.est dist
  end

(** Plan [e] against [db].  Runs the logical optimizer first unless
    [~optimize:false]; the memo table makes structurally equal subtrees
    share one physical node. *)
let plan ?(optimize = true) db (e : Ast.t) : Plan.t =
  let module T = Diagres_telemetry.Telemetry in
  T.with_span ~cat:"phase" "plan" @@ fun () ->
  let env = Typecheck.env_of_database db in
  let e =
    if optimize then
      T.with_span ~cat:"phase" "optimize" (fun () -> Optimize.optimize env e)
    else e
  in
  let st = { db; env; memo = Hashtbl.create 32 } in
  go st e
