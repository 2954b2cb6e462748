(** Differential evaluation over the physical plan algebra: maintain a
    registered (materialized) query under batched inserts and deletes
    instead of re-running its plan.

    This generalizes semi-naive Datalog evaluation — which rewrites each
    rule into per-predicate delta variants — to every operator {!Plan}
    executes.  A
    maintenance round propagates a {e signed set delta} [(Δ⁺, Δ⁻)] from
    the updated base relations to the root, one rule per operator:

    - {b scan}: the normalized delta {!Diagres_data.Database.apply_delta}
      reports for that relation;
    - {b filter} σp: [σp Δ⁺, σp Δ⁻] — stateless; large deltas run the
      vectorized selection kernels via an ephemeral plan node;
    - {b project} π: {e support counts} — a per-view table mapping each
      output tuple to the number of input tuples projecting onto it.
      Under set semantics a delete may not retract an output tuple that
      other inputs still support; an output insert fires on the 0→1
      transition, a retraction on 1→0.  (This is the one operator whose
      output multiplicity is unbounded, hence the one needing real
      counts.)
    - {b hash/nl join}: Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR, evaluated by
      {e ephemeral} join nodes over the delta and the maintained inputs
      (run through {!Plan.run}), so the existing kernels — including the
      per-relation cached join-side indexes — do the work.  The hash join
      probes the delta side and builds (or reuses the cached index) on
      the stable side; when only one input changes, each round is O(|Δ|)
      after the first.  Join outputs are injective in the (left, right)
      row pair (every dropped right key column equals a kept left one),
      so no support counts are needed: the two candidate sets cancel
      signed overlaps by set difference.
    - {b union/intersect/minus}: membership probes of the (small) child
      deltas against the maintained child results — the support count of
      an output tuple is its presence count across the two children, so
      probes decide retraction exactly;
    - {b division}: a divisor delta (or an empty divisor) recomputes the
      node from the maintained children; a dividend-only delta rechecks
      just the candidate groups whose keep-part appears in the delta.

    {b Where state lives.}  All differential state — maintained per-node
    results, projection support counts — belongs to the view (this [t]),
    keyed by node id; plans are immutable and shared through the LRU plan
    cache.  {!init} runs the plan once ({!Plan.run_profiled}) and
    snapshots every needed node result from that run's profile into the
    view; {!maintain} reads and writes only this view's state, running
    ephemeral nodes per round, so other runs of the registered plan —
    on any domain — cannot disturb maintenance.  Intermediate results are
    snapshotted only where a rule above reads them (join and set-op
    inputs, division, the root); pure filter/project chains keep no
    intermediates. *)

module D = Diagres_data
module R = D.Relation
module T = Diagres_telemetry.Telemetry

let c_delta_rows = T.counter "view.delta_rows"
let c_recompute_avoided = T.counter "view.recompute_avoided"
let h_maintain = T.histogram "view.maintain_ns"

(* Support-count tables key on output tuples under Tuple.compare equality
   (Int 2 and Float 2. are the same tuple cell, as everywhere else). *)
module TH = Hashtbl.Make (struct
  type t = D.Tuple.t

  let equal a b = D.Tuple.compare a b = 0

  let hash t =
    Array.fold_left
      (fun acc v -> ((acc * 31) + D.Value.hash v) land max_int)
      17 t
end)

type state = {
  mutable current : R.t option;
      (** maintained result of this node; [None] for nodes no delta rule
          reads (pure filter/project chains between snapshots) *)
  support : int TH.t option;  (** projection support counts *)
}

type t = {
  plan : Plan.t;
  states : (int, state) Hashtbl.t;  (** by node id *)
  mutable result : R.t;             (** maintained root result *)
  mutable rounds : int;             (** maintenance rounds applied *)
}

(** One node's contribution to a maintenance round.  [ins]/[del] are
    normalized against the node's previous result: inserts genuinely new,
    deletes genuinely retracted, disjoint.  [old_]/[cur] are the
    maintained results before/after the round, present only for nodes
    whose parents read them. *)
type round = { ins : R.t; del : R.t; old_ : R.t option; cur : R.t option }

type report = { result : R.t; root_inserts : int; root_deletes : int }

(* ---------------- which nodes keep maintained results ---------------- *)

(* A node's maintained result is read by: the root (it *is* the view),
   join and set-operation rules (membership probes and delta joins
   against the sibling), and division (its own old result and both
   children).  Relabel derives its result by renaming its child's, so a
   needed relabel needs its child.  Scans always track the base relation
   (sharing the database binding — no extra storage). *)
let mark_needed (root : Plan.t) : (int, unit) Hashtbl.t =
  let needed = Hashtbl.create 16 in
  let rec need (n : Plan.t) =
    if not (Hashtbl.mem needed n.Plan.id) then begin
      Hashtbl.add needed n.Plan.id ();
      match n.Plan.op with Plan.Relabel c -> need c | _ -> ()
    end
  in
  need root;
  Plan.fold_unique
    (fun (n : Plan.t) () ->
      match n.Plan.op with
      | Plan.Scan _ -> need n
      | Plan.Hash_join j ->
        need j.Plan.left;
        need j.Plan.right
      | Plan.Nl_join (_, a, b)
      | Plan.Union (a, b)
      | Plan.Inter (a, b)
      | Plan.Diff (a, b) ->
        need a;
        need b
      | Plan.Division (a, b) ->
        need n;
        need a;
        need b
      | _ -> ())
    root ();
  needed

(* ---------------- initialization ---------------- *)

let proj_of idx (t : D.Tuple.t) = Array.map (fun i -> t.(i)) idx

let bump tb u k =
  let c = (match TH.find_opt tb u with Some c -> c | None -> 0) + k in
  if c = 0 then TH.remove tb u else TH.replace tb u c;
  c

(** Run the plan once and snapshot the node results of that run's
    profile and the projection support counts into view-owned state. *)
let init (plan : Plan.t) : t =
  let result, prof = Plan.run_profiled plan in
  let needed = mark_needed plan in
  let states = Hashtbl.create 32 in
  Plan.fold_unique
    (fun (n : Plan.t) () ->
      let cached = Plan.result prof in
      let support =
        match n.Plan.op with
        | Plan.Project (idx, c) ->
          let tb = TH.create 64 in
          R.iter (fun tup -> ignore (bump tb (proj_of idx tup) 1)) (cached c);
          Some tb
        | _ -> None
      in
      Hashtbl.add states n.Plan.id
        { current =
            (if Hashtbl.mem needed n.Plan.id then Some (cached n) else None);
          support })
    plan ();
  { plan; states; result; rounds = 0 }

let result (t : t) = t.result
let rounds (t : t) = t.rounds

(* ---------------- ephemeral delta nodes ---------------- *)

(* Delta plans are assembled from fresh nodes wrapping the delta and
   maintained relations and run like any plan.  The hash joins stay row
   mode, so each round probes the stable side's cached per-relation
   index instead of rebuilding a columnar one. *)

let unit_dist (schema : D.Schema.t) = Array.make (D.Schema.arity schema) 1.

let scan_of (r : R.t) : Plan.t =
  Plan.mk
    (Plan.Scan ("delta", r))
    (R.schema r)
    (float_of_int (R.cardinality r))
    (unit_dist (R.schema r))

(* σp over a delta; a filter the planner would vectorize
   ({!Plan.vectorizable}) runs the columnar selection kernels unchanged
   (delta batches are ordinary canonical batches). *)
let run_filter (schema : D.Schema.t) (p : Plan.pred) (rel : R.t) : R.t =
  if R.is_empty rel then rel
  else
    let op = Plan.Filter (p, scan_of rel) in
    if Plan.vectorizable op then
      Plan.run (Plan.mk ~vec:true op schema 0. (unit_dist schema))
    else R.filter p.Plan.holds rel

(* ΔL ⋈ R (probe the delta on the left, build — or reuse the cached
   per-relation index — on the right). *)
let hash_join_delta (n : Plan.t) (j : Plan.hash_join) ~(probe : R.t)
    ~(build : R.t) : R.t =
  if R.is_empty probe || R.is_empty build then R.empty n.Plan.schema
  else
    Plan.run
      (Plan.mk
         (Plan.Hash_join
            { j with Plan.left = scan_of probe; right = scan_of build })
         n.Plan.schema 0. (unit_dist n.Plan.schema))

(* L ⋈ ΔR with the sides swapped so the *delta* is probed and the stable
   left input carries the cached index: the ephemeral join computes
   ΔR_full ++ L_rest, whose columns are then reordered into the original
   output schema (every left key column equals its right key partner on a
   matched row, so left keys are recovered from the right side), and the
   residual predicate — compiled against the original output schema —
   runs after the reorder. *)
let hash_join_delta_swapped (n : Plan.t) (j : Plan.hash_join)
    ~(probe : R.t) ~(build : R.t) : R.t =
  if R.is_empty probe || R.is_empty build then R.empty n.Plan.schema
  else begin
    let arity_l = D.Schema.arity j.Plan.left.Plan.schema in
    let arity_r = D.Schema.arity j.Plan.right.Plan.schema in
    let is_lkey p = Array.exists (fun q -> q = p) j.Plan.lkey in
    let l_rest =
      Array.of_list
        (List.filter (fun p -> not (is_lkey p)) (List.init arity_l Fun.id))
    in
    let swapped_schema =
      j.Plan.right.Plan.schema
      @ List.map
          (fun p -> List.nth j.Plan.left.Plan.schema p)
          (Array.to_list l_rest)
    in
    let swapped =
      Plan.mk
        (Plan.Hash_join
           { Plan.left = scan_of probe;
             right = scan_of build;
             lkey = Array.of_list j.Plan.rkey;
             rkey = Array.to_list j.Plan.lkey;
             right_rest = l_rest;
             residual = None })
        swapped_schema 0. (unit_dist swapped_schema)
    in
    let joined = Plan.run swapped in
    (* positions in the swapped output for each column of n.schema *)
    let rkey = Array.of_list j.Plan.rkey in
    let rank_in_rest p =
      let r = ref 0 in
      Array.iteri (fun k q -> if q = p then r := k) l_rest;
      !r
    in
    let out_idx =
      Array.init (D.Schema.arity n.Plan.schema) (fun p ->
          if p < arity_l then begin
            match Array.find_index (fun q -> q = p) j.Plan.lkey with
            | Some k -> rkey.(k) (* left key = matched right key column *)
            | None -> arity_r + rank_in_rest p
          end
          else j.Plan.right_rest.(p - arity_l))
    in
    let reordered = R.map n.Plan.schema (proj_of out_idx) joined in
    match j.Plan.residual with
    | None -> reordered
    | Some p -> R.filter p.Plan.holds reordered
  end

(* ΔA × B (or A × ΔB), filtered during enumeration — cost is the product
   of the two sides either way, so no swapping is needed. *)
let nl_join_delta (n : Plan.t) (p : Plan.pred option) (da : R.t) (rb : R.t) :
    R.t =
  if R.is_empty da || R.is_empty rb then R.empty n.Plan.schema
  else
    Plan.run
      (Plan.mk
         (Plan.Nl_join (p, scan_of da, scan_of rb))
         n.Plan.schema 0. (unit_dist n.Plan.schema))

(* ---------------- maintenance ---------------- *)

let empty_of (n : Plan.t) = R.empty n.Plan.schema

(* Signed cancellation: a tuple may surface as both an insert and a
   delete candidate (e.g. a join pair built from a new left and a deleted
   right row); the net delta is the set difference each way. *)
let combine_signed ins del =
  if R.is_empty ins || R.is_empty del then (ins, del)
  else (R.diff ins del, R.diff del ins)

let runion a b =
  if R.is_empty a then b else if R.is_empty b then a else R.union a b

(* Membership in a sibling's *previous* result, reconstructed from its
   round (new result minus its inserts, plus its deletes). *)
let mem_in_old tup (r : round) =
  (R.mem tup (Option.get r.cur) && not (R.mem tup r.ins))
  || R.mem tup r.del

let mem_in_cur tup (r : round) = R.mem tup (Option.get r.cur)

let maintain (t : t) (updates : (string * R.t * R.t * R.t) list) : report =
  let t0 = T.now_ns () in
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (name, rel, ins, del) -> Hashtbl.replace by_name name (rel, ins, del))
    updates;
  let state (n : Plan.t) = Hashtbl.find t.states n.Plan.id in
  let memo : (int, round) Hashtbl.t = Hashtbl.create 32 in
  let rec go (n : Plan.t) : round =
    match Hashtbl.find_opt memo n.Plan.id with
    | Some r -> r
    | None ->
      let r = step n in
      Hashtbl.add memo n.Plan.id r;
      r
  (* Fold the computed delta into the node's maintained result (when one
     is kept), taking the re-normalized deltas as this round's official
     ones — parents then see deltas exact w.r.t. the maintained state by
     construction, not just by the rule's correctness argument. *)
  and finalize (n : Plan.t) ((ins, del) : R.t * R.t) : round =
    let st = state n in
    match st.current with
    | None -> { ins; del; old_ = None; cur = None }
    | Some old_ ->
      let cur, ins', del' = R.apply_delta ~inserts:ins ~deletes:del old_ in
      st.current <- Some cur;
      { ins = ins'; del = del'; old_ = Some old_; cur = Some cur }
  and step (n : Plan.t) : round =
    match n.Plan.op with
    | Plan.Empty ->
      { ins = empty_of n; del = empty_of n; old_ = None; cur = None }
    | Plan.Scan (name, _) ->
      let st = state n in
      let old_ = Option.get st.current in
      (match Hashtbl.find_opt by_name name with
      | None ->
        { ins = R.empty (R.schema old_); del = R.empty (R.schema old_);
          old_ = Some old_; cur = Some old_ }
      | Some (rel, ins, del) ->
        st.current <- Some rel;
        { ins; del; old_ = Some old_; cur = Some rel })
    | Plan.Filter (p, c) ->
      let rc = go c in
      finalize n
        (run_filter n.Plan.schema p rc.ins, run_filter n.Plan.schema p rc.del)
    | Plan.Project (idx, c) ->
      let rc = go c in
      let tb = Option.get (state n).support in
      (* order-independent: remember each touched output's pre-round
         count, then classify by the (before, after) sign pair *)
      let before = TH.create 16 in
      let touch u =
        if not (TH.mem before u) then
          TH.add before u
            (match TH.find_opt tb u with Some c -> c | None -> 0)
      in
      R.iter
        (fun tup ->
          let u = proj_of idx tup in
          touch u;
          ignore (bump tb u 1))
        rc.ins;
      R.iter
        (fun tup ->
          let u = proj_of idx tup in
          touch u;
          ignore (bump tb u (-1)))
        rc.del;
      let ins = ref [] and del = ref [] in
      TH.iter
        (fun u was ->
          let now = match TH.find_opt tb u with Some c -> c | None -> 0 in
          if was = 0 && now > 0 then ins := u :: !ins
          else if was > 0 && now = 0 then del := u :: !del)
        before;
      finalize n
        (R.of_tuples n.Plan.schema !ins, R.of_tuples n.Plan.schema !del)
    | Plan.Relabel c ->
      let rc = go c in
      let names = D.Schema.names n.Plan.schema in
      let rn = R.rename_all names in
      let st = state n in
      let old_ = Option.map rn rc.old_ and cur = Option.map rn rc.cur in
      if Option.is_some st.current then st.current <- cur;
      { ins = rn rc.ins; del = rn rc.del; old_; cur }
    | Plan.Hash_join j ->
      let rl = go j.Plan.left and rr = go j.Plan.right in
      (* Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR: with a single-sided update
         stream the stable side's cached index persists across rounds,
         making each round O(|Δ| · fanout) *)
      let l_old = Option.get rl.old_ and l_cur = Option.get rl.cur in
      let r_old = Option.get rr.old_ in
      ignore l_old;
      let ins_cand =
        runion
          (hash_join_delta n j ~probe:rl.ins ~build:r_old)
          (hash_join_delta_swapped n j ~probe:rr.ins ~build:l_cur)
      in
      let del_cand =
        runion
          (hash_join_delta n j ~probe:rl.del ~build:r_old)
          (hash_join_delta_swapped n j ~probe:rr.del ~build:l_cur)
      in
      finalize n (combine_signed ins_cand del_cand)
    | Plan.Nl_join (p, a, b) ->
      let ra = go a and rb = go b in
      let b_old = Option.get rb.old_ and a_cur = Option.get ra.cur in
      let ins_cand =
        runion (nl_join_delta n p ra.ins b_old) (nl_join_delta n p a_cur rb.ins)
      in
      let del_cand =
        runion (nl_join_delta n p ra.del b_old) (nl_join_delta n p a_cur rb.del)
      in
      finalize n (combine_signed ins_cand del_cand)
    | Plan.Union (a, b) ->
      let ra = go a and rb = go b in
      (* an insert is new to the union iff the sibling didn't already
         hold it; a delete retracts iff the sibling no longer holds it —
         the support count of an output tuple is its presence count
         across the two children, probed rather than stored *)
      let ins =
        runion
          (R.filter (fun tup -> not (mem_in_old tup rb)) ra.ins)
          (R.filter (fun tup -> not (mem_in_old tup ra)) rb.ins)
      in
      let del =
        runion
          (R.filter (fun tup -> not (mem_in_cur tup rb)) ra.del)
          (R.filter (fun tup -> not (mem_in_cur tup ra)) rb.del)
      in
      finalize n (ins, del)
    | Plan.Inter (a, b) ->
      let ra = go a and rb = go b in
      let ins =
        runion
          (R.filter (fun tup -> mem_in_cur tup rb) ra.ins)
          (R.filter (fun tup -> mem_in_cur tup ra) rb.ins)
      in
      let del =
        runion
          (R.filter (fun tup -> mem_in_old tup rb) ra.del)
          (R.filter (fun tup -> mem_in_old tup ra) rb.del)
      in
      finalize n (ins, del)
    | Plan.Diff (a, b) ->
      let ra = go a and rb = go b in
      let ins =
        runion
          (R.filter (fun tup -> not (mem_in_cur tup rb)) ra.ins)
          (R.filter (fun tup -> mem_in_cur tup ra) rb.del)
      in
      let del =
        runion
          (R.filter (fun tup -> not (mem_in_old tup rb)) ra.del)
          (R.filter (fun tup -> mem_in_old tup ra) rb.ins)
      in
      finalize n (ins, del)
    | Plan.Division (a, b) ->
      let ra = go a and rb = go b in
      let st = state n in
      let old_ = Option.get st.current in
      let a_cur = Option.get ra.cur and b_cur = Option.get rb.cur in
      if
        (not (R.is_empty rb.ins && R.is_empty rb.del)) || R.is_empty b_cur
      then begin
        (* divisor changed (or is empty, where every dividend group
           qualifies): recompute this node from the maintained children —
           divisors are typically small and rarely updated *)
        let cur = R.division a_cur b_cur in
        st.current <- Some cur;
        { ins = R.diff cur old_; del = R.diff old_ cur;
          old_ = Some old_; cur = Some cur }
      end
      else begin
        (* dividend-only delta: recheck exactly the candidate groups
           whose keep-part appears in the delta *)
        let a_schema = a.Plan.schema in
        let keep_pos =
          Array.of_list
            (List.map
               (fun nm -> D.Schema.index nm a_schema)
               (D.Schema.names n.Plan.schema))
        in
        let div_pos =
          Array.of_list
            (List.map
               (fun nm -> D.Schema.index nm a_schema)
               (D.Schema.names b.Plan.schema))
        in
        let arity_a = D.Schema.arity a_schema in
        let proj_keep = R.map n.Plan.schema (proj_of keep_pos) in
        let cands = runion (proj_keep ra.ins) (proj_keep ra.del) in
        let compose c u =
          let arr = Array.make arity_a D.Value.Null in
          Array.iteri (fun i p -> arr.(p) <- c.(i)) keep_pos;
          Array.iteri (fun k p -> arr.(p) <- u.(k)) div_pos;
          arr
        in
        let in_new c = R.for_all (fun u -> R.mem (compose c u) a_cur) b_cur in
        let ins = R.filter (fun c -> (not (R.mem c old_)) && in_new c) cands in
        let del = R.filter (fun c -> R.mem c old_ && not (in_new c)) cands in
        let cur, ins', del' = R.apply_delta ~inserts:ins ~deletes:del old_ in
        st.current <- Some cur;
        { ins = ins'; del = del'; old_ = Some old_; cur = Some cur }
      end
  in
  let root_round =
    T.with_span ~cat:"view" "view.maintain" (fun () -> go t.plan)
  in
  t.result <- Option.get root_round.cur;
  t.rounds <- t.rounds + 1;
  let root_inserts = R.cardinality root_round.ins
  and root_deletes = R.cardinality root_round.del in
  T.add c_delta_rows (root_inserts + root_deletes);
  T.incr c_recompute_avoided;
  T.observe h_maintain (Int64.to_float (Int64.sub (T.now_ns ()) t0));
  { result = t.result; root_inserts; root_deletes }

(* ---------------- memory accounting ---------------- *)

(** Estimated bytes of the view's differential state: the maintained root
    result, every snapshotted intermediate, and the projection
    support-count tables (keys plus table cells) — the substrate of the
    [memory_bytes.delta_state] gauge.  The plan itself is shared with the
    plan cache and not counted here. *)
let memory_bytes (t : t) : int =
  let word = 8 in
  let support_bytes tb =
    TH.fold
      (fun k _ acc -> acc + D.Tuple.memory_bytes k + (5 * word))
      tb 0
  in
  let state_bytes _ (st : state) acc =
    let cur =
      match st.current with Some r -> R.memory_bytes r | None -> 0
    in
    let sup = match st.support with Some tb -> support_bytes tb | None -> 0 in
    acc + cur + sup
  in
  R.memory_bytes t.result + Hashtbl.fold state_bytes t.states 0
