(** Physical query plans: the execution half of the logical/physical split.

    A plan is a DAG of physical operators produced by {!Planner} from an
    optimized {!Ast.t}.  Three things distinguish it from the tree-walking
    reference evaluator ({!Eval.eval}):

    - {b compiled predicates} — selection and join predicates are compiled
      once into closures over resolved attribute {e positions}; no
      per-tuple attribute-name lookup survives into the inner loops;
    - {b hash equi-joins} — equality conjuncts probe the per-relation
      cached hash indexes ({!Diagres_data.Relation.matching}) instead of
      filtering a materialized cartesian product;
    - {b shared-subtree memoization} — structurally equal subexpressions
      are hash-consed to a single node whose result each run computes once
      and serves from its memo afterwards.

    A plan is an immutable value once planning ends: nodes carry no
    per-run state, so one plan is shared freely through the LRU
    {!Plan_cache} by direct evaluation, registered views and concurrent
    runs on several domains.  Everything a run produces lives in its own
    {!profile}, keyed by node id: the memoized results (actual row counts
    are read from these), memo hits, operator details and, under
    telemetry, time and allocation.  {!run_profiled} returns the profile
    beside the result; {!explain}/{!analyze} render a plan against one.

    Each operator has one execution path per storage form, and the
    planner alone picks it: nodes it builds vectorized ({!vectorizable}:
    estimated input at or above {!vec_threshold} rows) run the columnar
    kernels, every other node runs one sequential row path.  The
    vectorized batches are the only work that runs on the shared domain
    pool ({!Diagres_pool.Pool}): inputs above {!par_threshold} rows are
    split into batches evaluated across the pool ({!vec_batches}), whose
    results are merged in batch order, so every result is {e identical}
    at any domain count (property-tested).  Row operators — the
    nested-loop join included — run on the calling domain at any pool
    size: small inputs gain nothing from the pool, and the sequential
    hash join keeps using the build side's cached per-relation index.
    Only the calling domain walks the plan; pool workers run kernel
    batches and never touch the profile. *)

module D = Diagres_data
module Pool = Diagres_pool.Pool
module T = Diagres_telemetry.Telemetry

(** A compiled predicate with its display string (for explain output) and
    its source AST (recompiled into a vectorized bitmap filler when the
    operator runs columnar). *)
type pred = { display : string; holds : D.Tuple.t -> bool; ast : Ast.pred }

type t = {
  id : int;                             (** stable id, keys the profile *)
  op : op;
  schema : D.Schema.t;                  (** output schema *)
  est : float;                          (** estimated output rows *)
  est_distinct : float array;           (** estimated distinct per column *)
  vec : bool;
      (** take the vectorized (columnar) execution path; the planner
          decides by {!vectorizable} *)
}

and op =
  | Scan of string * D.Relation.t       (** base relation *)
  | Empty                               (** ∅ with a known schema *)
  | Filter of pred * t                  (** compiled σ *)
  | Project of int array * t            (** positional π (also reordering) *)
  | Relabel of t                        (** ρ: schema-only renaming *)
  | Hash_join of hash_join              (** equi-join via cached indexes *)
  | Nl_join of pred option * t * t      (** ×, filtered during enumeration *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Division of t * t

and hash_join = {
  left : t;
  right : t;
  lkey : int array;       (** key positions in the left input *)
  rkey : int list;        (** matching key positions in the right input *)
  right_rest : int array; (** right positions appended to the output *)
  residual : pred option; (** non-equality leftovers, over the output *)
}

(* ---------------- predicate compilation ---------------- *)

let compile_operand schema = function
  | Ast.Const v -> fun _ -> v
  | Ast.Attr a ->
    let i = D.Schema.index a schema in
    fun t -> D.Tuple.get t i

(** Compile a predicate against [schema]: attribute positions are resolved
    here, once, so the returned closure does only array reads. *)
let rec compile schema = function
  | Ast.Cmp (op, a, b) ->
    let fa = compile_operand schema a and fb = compile_operand schema b in
    let cmp = Diagres_logic.Fol.cmp_eval op in
    fun t -> cmp (fa t) (fb t)
  | Ast.And (p, q) ->
    let fp = compile schema p and fq = compile schema q in
    fun t -> fp t && fq t
  | Ast.Or (p, q) ->
    let fp = compile schema p and fq = compile schema q in
    fun t -> fp t || fq t
  | Ast.Not p ->
    let fp = compile schema p in
    fun t -> not (fp t)
  | Ast.Ptrue -> fun _ -> true

let compile_pred schema p : pred =
  { display = Pretty.pred_to_string p; holds = compile schema p; ast = p }

(* ---------------- execution knobs ---------------- *)

(** Minimum input rows before the vectorized batches run across the
    pool.  Mutable so the differential tests can force the pooled batches
    on tiny relations; the default keeps small catalog queries
    sequential. *)
let par_threshold = ref 2048

(** Minimum estimated input rows before the planner marks an operator
    vectorized — below this, forcing the columnar view costs more than the
    tight loops save.  Mutable so the differential tests can force the
    vectorized operators on tiny relations, or — at [max_int] — plan every
    operator in row mode. *)
let vec_threshold = ref 256

(** Rows per vectorized batch: the unit the selection kernels and the
    parallel probe chunk over.  Mutable so the tests can force batch
    boundaries on tiny inputs.  (The filter rounds this up to a multiple
    of 63 so parallel batches write disjoint bitmap words.) *)
let batch_rows = ref 4096

(** Have no effect: every vectorized operator gathers eagerly, and the
    planner alone picks row or columnar kernels ({!vectorizable}).  Kept
    only because the perfbench harness still assigns them; the next change
    to that harness deletes them. *)
let defer_gathers = ref true
let columnar_enabled = ref true

(* ---------------- node construction ---------------- *)

(* Atomic: nodes are built on several domains at once (planning on a
   plan-cache miss, Delta's per-round nodes), and ids key every run's
   profile, so two nodes must never share one. *)
let node_counter = Atomic.make 0

let mk ?(vec = false) op schema est est_distinct : t =
  { id = Atomic.fetch_and_add node_counter 1 + 1; op; schema;
    est = Float.max 0. est; est_distinct; vec }

(** Whether the planner builds [op] vectorized: filters and projections
    whose estimated input clears {!vec_threshold} rows, hash joins where
    either side does, set operations (union / intersect / minus)
    likewise — canonical batches are sorted and duplicate-free, so those
    run as single linear merges with no hashing or boxing — and division
    (sorted-group merge, {!vec_division}).  Nested-loop joins stay in row
    mode — their sorted-set implementation already runs without per-row
    closure dispatch, and vectorizing them does not pay.  The flag is fixed
    at plan time: a plan built with [vec_threshold := max_int] has no
    vectorized node and runs every operator through the row kernels. *)
let vectorizable op =
  let thr = float_of_int !vec_threshold in
  match op with
  | Filter (_, c) | Project (_, c) -> c.est >= thr
  | Hash_join j -> Float.max j.left.est j.right.est >= thr
  | Union (a, b) | Inter (a, b) | Diff (a, b) | Division (a, b) ->
    Float.max a.est b.est >= thr
  | _ -> false

let c_batches = T.counter "columnar.batches"
let c_rows = T.counter "columnar.rows"
let c_fallback = T.counter "columnar.fallback_row_mode"

(* ---------------- per-run profile ---------------- *)

(** What one run recorded at one node. *)
type node_run = {
  result : D.Relation.t;   (** the node's result, memoized for this run *)
  mutable hits : int;      (** times this run served it from the memo *)
  ns : int64;
      (** wall time of the compute, children included; -1 = untimed
          (telemetry off) *)
  alloc : float;
      (** bytes allocated by the compute on the executing domain, children
          included; -1 = untracked (alloc tracking off) *)
  detail : (string * int) list;
      (** operator-specific measurements in recording order: [vec] /
          [batches] for the vectorized paths and, under telemetry,
          [build_ns] / [probe_ns] for hash joins *)
}

(** One run's profile, keyed by node id: its memo plus what it measured.
    Only the run that made it writes it, so runs of one shared plan never
    see each other's state. *)
type profile = (int, node_run) Hashtbl.t

(* ---------------- execution ---------------- *)

let children n =
  match n.op with
  | Scan _ | Empty -> []
  | Filter (_, c) | Project (_, c) | Relabel c -> [ c ]
  | Hash_join j -> [ j.left; j.right ]
  | Nl_join (_, a, b) | Union (a, b) | Inter (a, b) | Diff (a, b)
  | Division (a, b) ->
    [ a; b ]

(* Short operator kind, the span name for traced node computations. *)
let op_kind n =
  match n.op with
  | Scan _ -> "op.scan"
  | Empty -> "op.empty"
  | Filter _ -> "op.filter"
  | Project _ -> "op.project"
  | Relabel _ -> "op.rename"
  | Hash_join _ -> "op.hash-join"
  | Nl_join _ -> "op.nl-join"
  | Union _ -> "op.union"
  | Inter _ -> "op.intersect"
  | Diff _ -> "op.minus"
  | Division _ -> "op.divide"

(* [timed_if f]: (elapsed ns, result of [f]) when tracing is enabled,
   (0, result) — no clock reads — otherwise. *)
let timed_if f =
  if not (T.enabled ()) then (0, f ())
  else begin
    let t0 = T.now_ns () in
    let r = f () in
    (Int64.to_int (Int64.sub (T.now_ns ()) t0), r)
  end

(* Operator details of the compute in progress, newest first; {!exec}
   stores them on the node's profile entry. *)
type notes = (string * int) list ref

(* ---------------- vectorized operators ---------------- *)

(* Run [f lo len] over the row range [0, nrows) in batches of [!batch_rows]
   (rounded up to a multiple of [align]), through the domain pool when the
   input clears the parallel threshold.  Returns per-batch results in
   range order; counts the batch/row telemetry. *)
let vec_batches ?(align = 1) nrows (f : int -> int -> 'a) : 'a array =
  let chunk = max 1 !batch_rows in
  let chunk = (chunk + align - 1) / align * align in
  let nchunks = max 1 ((nrows + chunk - 1) / chunk) in
  T.add c_batches nchunks;
  T.add c_rows nrows;
  let run k =
    let lo = k * chunk in
    f lo (min chunk (nrows - lo))
  in
  if Pool.size () > 1 && nrows >= !par_threshold && nchunks > 1 then
    Pool.run_all (Array.init nchunks (fun k () -> run k))
  else Array.init nchunks run

let concat_ints (parts : int array array) : int array =
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 parts in
  let out = Array.make total 0 in
  let off = ref 0 in
  Array.iter
    (fun s ->
      Array.blit s 0 out !off (Array.length s);
      off := !off + Array.length s)
    parts;
  out

(* σ as a word-bitmap pass: compile the predicate into a bitmap filler
   once, run it batch by batch into one full-length bitmap, and gather the
   surviving rows through it.  A selection from a canonical batch keeps
   canonical order, so the result relation is built without re-sorting; a
   predicate passing every row returns the input relation unchanged (and
   shares its caches). *)
let vec_filter n (d : notes) (p : pred) (r : D.Relation.t) : D.Relation.t =
  let base = D.Relation.batch r in
  let nrows = D.Batch.nrows base in
  let filler = Vector.compile_pred base n.schema p.ast in
  (* every batch writes its own disjoint word range of one full-length
     bitmap (batches are 63-row aligned, so ranges never straddle a word;
     safe from several domains), and the count and gather run once over
     the whole relation.  The bitmap is per-domain pooled scratch, so
     steady-state filters allocate nothing here. *)
  D.Column.Scratch.with_words ~len:nrows @@ fun bits ->
  let parts =
    vec_batches ~align:D.Column.bits_per_word nrows (fun lo len ->
        D.Column.Scratch.with_words ~len (fun window ->
            filler ~lo ~len window;
            Array.blit window 0 bits
              (lo / D.Column.bits_per_word)
              (D.Column.words_for len)))
  in
  let count = D.Column.count_bits bits ~len:nrows in
  d := ("vec", 1) :: ("batches", Array.length parts) :: !d;
  if count = nrows then r (* every base row passes: input unchanged *)
  else if count = 0 then D.Relation.empty n.schema
  else
    D.Relation.of_batch ~canonical:true n.schema (D.Batch.gather_bits base bits)

(* π: the kept columns are re-labeled zero-copy ([Batch.columns] shares
   the column arrays); only the canonicalizing sort-dedup of the *kept*
   columns touches data — dropped columns are never read. *)
let vec_project n (d : notes) idx (r : D.Relation.t) : D.Relation.t =
  let b = D.Relation.batch r in
  T.add c_batches 1;
  T.add c_rows (D.Batch.nrows b);
  d := ("vec", 1) :: !d;
  D.Relation.of_batch n.schema (D.Batch.columns b idx)

(* Hash join on unboxed int key columns (ints, bools, dictionary codes —
   [Column.join_codes] translates the build side's dictionary into the
   probe side's code space, so code equality is value equality).  Build is
   an int-keyed row index over the right side; probe emits (left row,
   right row) index pairs batch by batch through the pool; the output is
   assembled by gathering left columns and the right rest columns over
   those pairs, with the residual predicate running vectorized over the
   assembled batch.  A side with no rows yields the empty result
   directly — an empty batch's columns carry no kind, so there is no code
   view to join on, and none is needed.  [None] when some key pair has no
   unboxed code view (floats, mixed-kind columns) — the caller then takes
   the row path. *)
let vec_hash_join n (d : notes) (j : hash_join) lr rr : D.Relation.t option =
  let lb = D.Relation.batch lr and rb = D.Relation.batch rr in
  let build_n = D.Batch.nrows rb and probe_n = D.Batch.nrows lb in
  let lcols = D.Batch.cols lb and rcols = D.Batch.cols rb in
  let rkey = Array.of_list j.rkey in
  let nk = Array.length j.lkey in
  let empty_side = build_n = 0 || probe_n = 0 in
  let pairs =
    if empty_side then [||]
    else
      Array.init nk (fun k ->
          D.Column.join_codes lcols.(j.lkey.(k)) rcols.(rkey.(k)))
  in
  if empty_side then begin
    d := ("vec", 1) :: !d;
    Some (D.Relation.empty n.schema)
  end
  else if nk = 0 || Array.exists Option.is_none pairs then None
  else begin
    let probes = Array.map (fun p -> fst (Option.get p)) pairs in
    let builds = Array.map (fun p -> snd (Option.get p)) pairs in
    (* single-key joins (the common case) keep the key an unboxed int end
       to end; multi-key joins pay one small key array per row.
       [iter_matches] takes a left row and yields matching right rows. *)
    let build_ns, iter_matches =
      timed_if (fun () ->
          if nk = 1 then begin
            let probe = probes.(0) in
            let tbl = D.Index.build_int1_rows ~n:build_n builds.(0) in
            fun i f -> D.Index.iter_int1_rows tbl (probe i) f
          end
          else begin
            let lkeyf i = Array.init nk (fun k -> probes.(k) i) in
            let rkeyf k = Array.init nk (fun c -> builds.(c) k) in
            let tbl = D.Index.build_int_rows ~n:build_n rkeyf in
            fun i f -> List.iter f (D.Index.lookup_int_rows tbl (lkeyf i))
          end)
    in
    let probe_ns, (li, ri) =
      timed_if @@ fun () ->
      let parts =
        vec_batches probe_n (fun lo len ->
            let cap = ref (max 16 len) in
            let li = ref (Array.make !cap 0)
            and ri = ref (Array.make !cap 0) in
            let cnt = ref 0 in
            for i = lo to lo + len - 1 do
              iter_matches i (fun jrow ->
                  if !cnt = !cap then begin
                    cap := 2 * !cap;
                    let li' = Array.make !cap 0 and ri' = Array.make !cap 0 in
                    Array.blit !li 0 li' 0 !cnt;
                    Array.blit !ri 0 ri' 0 !cnt;
                    li := li';
                    ri := ri'
                  end;
                  !li.(!cnt) <- i;
                  !ri.(!cnt) <- jrow;
                  incr cnt)
            done;
            (Array.sub !li 0 !cnt, Array.sub !ri 0 !cnt))
      in
      ( concat_ints (Array.map fst parts),
        concat_ints (Array.map snd parts) )
    in
    let out_cols =
      Array.append
        (Array.map (fun c -> D.Column.gather c li) lcols)
        (Array.map (fun rpos -> D.Column.gather rcols.(rpos) ri) j.right_rest)
    in
    let out_b = D.Batch.make ~nrows:(Array.length li) out_cols in
    let out_b =
      match j.residual with
      | None -> out_b
      | Some p ->
        let filler = Vector.compile_pred out_b n.schema p.ast in
        let m = D.Batch.nrows out_b in
        D.Column.Scratch.with_words ~len:m (fun bits ->
            filler ~lo:0 ~len:m bits;
            let sel = D.Column.sel_of_bits bits ~lo:0 ~len:m in
            if Array.length sel = m then out_b else D.Batch.gather out_b sel)
    in
    d := ("vec", 1) :: !d;
    if T.enabled () then
      d := ("build_ns", build_ns) :: ("probe_ns", probe_ns) :: !d;
    (* The output is canonical by construction, so the sort-dedup (and even
       its is-canonical scan) is skipped.  Argument: the probe walks left
       rows ascending and the index yields matching right rows ascending,
       so output rows are ordered by (left row, right row); left input is
       canonical (strictly ascending), and within one left row the matched
       right tuples share the key columns, hence sort by their rest columns
       — which appear after the left columns, in right-side order, in
       [out_cols].  Rows are distinct because (left, right) row pairs are,
       and equal-keyed right tuples differ in their rest columns.  The
       residual selection keeps a subsequence, which preserves both. *)
    Some (D.Relation.of_batch ~canonical:true n.schema out_b)
  end

(* Set operations over two canonical batches: a single linear merge
   (Batch.merge_union and friends), no hashing and no boxing.  Outputs are
   canonical by
   construction — a union interleaves two sorted duplicate-free row
   sequences, intersection and difference keep subsequences of the left
   one. *)
let vec_setop n (d : notes) (merge : D.Batch.t -> D.Batch.t -> D.Batch.t) ra
    rb : D.Relation.t =
  let ba = D.Relation.batch ra and bb = D.Relation.batch rb in
  T.add c_batches 2;
  T.add c_rows (D.Batch.nrows ba + D.Batch.nrows bb);
  d := ("vec", 1) :: !d;
  D.Relation.of_batch ~canonical:true n.schema (merge ba bb)

(* ÷ as a sorted-group merge: reorder the dividend's columns to
   (keep, divisor-in-divisor-order) — zero-copy — and canonicalize once;
   the rows then cluster into keep-groups, and within one group the
   divisor suffix ascends exactly like the canonical divisor batch does
   (same columns, same comparator).  One linear two-pointer merge per
   group decides containment; winners are the groups whose merge consumes
   the whole divisor.  No hashing, no boxing, and [Column.cmp2] keeps
   dictionary-vs-dictionary comparisons on int ranks.  The winners' first
   rows form an ascending distinct selection over the sorted batch, so
   the output is canonical by construction.  Unlike the join kernels this
   never needs a row fallback: cmp2 falls back to decoded Value.compare
   per column pair, which is still the exact row semantics. *)
let vec_division n (d : notes) (a : t) (b : t) (ra : D.Relation.t)
    (rb : D.Relation.t) : D.Relation.t =
  (* division is a pipeline breaker: both inputs materialize *)
  let bb = D.Relation.batch rb in
  let keep_names = D.Schema.names n.schema in
  let ia_keep =
    Array.of_list (List.map (fun nm -> D.Schema.index nm a.schema) keep_names)
  in
  let nk = Array.length ia_keep in
  let ba = D.Relation.batch ra in
  let nb = D.Batch.nrows bb in
  T.add c_batches 2;
  T.add c_rows (D.Batch.nrows ba + nb);
  d := ("vec", 1) :: !d;
  if nb = 0 then
    (* the classic caveat: an empty divisor keeps every candidate *)
    D.Relation.of_batch n.schema (D.Batch.columns ba ia_keep)
  else begin
    let ia_div =
      Array.of_list
        (List.map
           (fun nm -> D.Schema.index nm a.schema)
           (D.Schema.names b.schema))
    in
    let s = D.Batch.sort_dedup (D.Batch.columns ba (Array.append ia_keep ia_div)) in
    let na = D.Batch.nrows s in
    let scols = D.Batch.cols s in
    let keep_cmps = Array.init nk (fun c -> D.Column.row_compare scols.(c)) in
    let same_group i j =
      let rec go c = c = nk || (keep_cmps.(c) i j = 0 && go (c + 1)) in
      go 0
    in
    let ncd = D.Batch.ncols bb in
    let div_cmps =
      Array.init ncd (fun c -> D.Column.cmp2 scols.(nk + c) (D.Batch.cols bb).(c))
    in
    let cmp_div i j =
      let rec go c =
        if c = ncd then 0
        else
          let r = div_cmps.(c) i j in
          if r <> 0 then r else go (c + 1)
      in
      go 0
    in
    let winners = ref [] and nwin = ref 0 in
    let i = ref 0 in
    while !i < na do
      let g0 = !i in
      let e = ref (g0 + 1) in
      while !e < na && same_group g0 !e do incr e done;
      let ii = ref g0 and jb = ref 0 in
      while !ii < !e && !jb < nb do
        let c = cmp_div !ii !jb in
        if c < 0 then incr ii
        else if c = 0 then begin
          incr ii;
          incr jb
        end
        else jb := nb + 1 (* this divisor row is absent: fail the group *)
      done;
      if !jb = nb then begin
        winners := g0 :: !winners;
        incr nwin
      end;
      i := !e
    done;
    let sel = Array.make !nwin 0 in
    List.iteri (fun k v -> sel.(k) <- v) !winners;
    (* winners were prepended, so they sit in [sel] descending: reverse *)
    let half = !nwin / 2 in
    for k = 0 to half - 1 do
      let t = sel.(k) in
      sel.(k) <- sel.(!nwin - 1 - k);
      sel.(!nwin - 1 - k) <- t
    done;
    let keep_batch = D.Batch.columns s (Array.init nk Fun.id) in
    D.Relation.of_batch ~canonical:true n.schema (D.Batch.gather keep_batch sel)
  end

(* A row-mode operator running over an input that was born columnar:
   counted so the telemetry shows where vectorization does not apply.
   Both the aggregate counter and a per-operator labelled counter are
   bumped, so [qviz stats] shows *which* operator fell back (the division
   holdout, a join with no unboxed key view, …), not just that something
   did.  Interning the labelled slot takes the registry mutex, but this
   runs once per operator execution, never per row. *)
let note_row_fallback n inputs =
  if List.exists (fun r -> Option.is_some (D.Relation.peek_batch r)) inputs
  then begin
    T.incr c_fallback;
    T.incr (T.counter ("columnar.fallback_row_mode." ^ op_kind n))
  end

(* Execute [n] within the run that owns [prof]: served from the run's
   memo when this run already computed it, computed (children first) and
   recorded otherwise. *)
let rec exec (prof : profile) (n : t) : D.Relation.t =
  match Hashtbl.find_opt prof n.id with
  | Some e ->
    e.hits <- e.hits + 1;
    e.result
  | None ->
    let d = ref [] in
    let result, ns, alloc =
      if not (T.enabled ()) then (compute prof d n, -1L, -1.)
      else begin
        (* one span per node computation; the duration is inclusive of the
           children computed beneath it, mirroring the tree shape the
           trace viewer shows *)
        let sp = T.start ~cat:"operator" (op_kind n) in
        let alloc0 =
          if T.alloc_enabled () then Gc.allocated_bytes () else 0.
        in
        let t0 = T.now_ns () in
        let r = compute prof d n in
        let ns = Int64.sub (T.now_ns ()) t0 in
        (* allocation on the executing domain, children included; work a
           parallel operator shipped to pool domains is attributed to
           those domains' spans, not this node *)
        let alloc =
          if T.alloc_enabled () then Gc.allocated_bytes () -. alloc0 else -1.
        in
        let rows_in =
          List.fold_left
            (fun acc c ->
              acc + D.Relation.cardinality (Hashtbl.find prof c.id).result)
            0 (children n)
        in
        T.finish
          ~attrs:
            (("node", T.Int n.id)
            :: ("rows_in", T.Int rows_in)
            :: ("rows_out", T.Int (D.Relation.cardinality r))
            :: List.map (fun (k, v) -> (k, T.Int v)) !d)
          sp;
        (r, ns, alloc)
      end
    in
    Hashtbl.add prof n.id { result; hits = 0; ns; alloc; detail = List.rev !d };
    result

and compute prof (d : notes) n : D.Relation.t =
  match n.op with
  | Scan (_, r) -> r
  | Empty -> D.Relation.empty n.schema
  | Filter (p, c) ->
    let r = exec prof c in
    if n.vec then vec_filter n d p r
    else D.Relation.filter p.holds r
  | Project (idx, c) ->
    let r = exec prof c in
    if n.vec then vec_project n d idx r
    else D.Relation.map n.schema (fun t -> Array.map (D.Tuple.get t) idx) r
  | Relabel c ->
    D.Relation.rename_all (D.Schema.names n.schema) (exec prof c)
  | Hash_join j -> (
    let lr = exec prof j.left and rr = exec prof j.right in
    match
      if n.vec then begin
        match vec_hash_join n d j lr rr with
        | Some r -> Some r
        | None ->
          (* key columns with no unboxed code view: row path *)
          T.incr c_fallback;
          T.incr (T.counter ("columnar.fallback_row_mode." ^ op_kind n));
          None
      end
      else None
    with
    | Some r -> r
    | None ->
      (* sequential probe over the per-relation cached index; under
         tracing the index build is forced first so build and probe time
         are attributable separately *)
      let build_ns, () =
        timed_if (fun () -> D.Relation.prepare_index rr j.rkey)
      in
      let probe_ns, r =
        timed_if (fun () ->
            D.Relation.of_tuples n.schema
              (D.Relation.fold
                 (fun ta acc ->
                   let key = Array.map (D.Tuple.get ta) j.lkey in
                   List.fold_left
                     (fun acc tb ->
                       let out =
                         D.Tuple.concat ta
                           (Array.map (D.Tuple.get tb) j.right_rest)
                       in
                       match j.residual with
                       | Some p when not (p.holds out) -> acc
                       | _ -> out :: acc)
                     acc
                     (D.Relation.matching rr j.rkey key))
                 lr []))
      in
      if T.enabled () then
        d := ("build_ns", build_ns) :: ("probe_ns", probe_ns) :: !d;
      r)
  | Nl_join (p, a, b) ->
    let ra = exec prof a and rb = exec prof b in
    note_row_fallback n [ ra; rb ];
    D.Relation.of_tuples n.schema
      (Array.fold_right
         (fun ta acc ->
           D.Relation.fold
             (fun tb acc ->
               let out = D.Tuple.concat ta tb in
               match p with
               | Some p when not (p.holds out) -> acc
               | _ -> out :: acc)
             rb acc)
         (D.Relation.tuples_array ra) [])
  | Union (a, b) when n.vec ->
    vec_setop n d D.Batch.merge_union (exec prof a) (exec prof b)
  | Inter (a, b) when n.vec ->
    vec_setop n d D.Batch.merge_inter (exec prof a) (exec prof b)
  | Diff (a, b) when n.vec ->
    vec_setop n d D.Batch.merge_diff (exec prof a) (exec prof b)
  | Union (a, b) ->
    let ra = exec prof a and rb = exec prof b in
    note_row_fallback n [ ra; rb ];
    D.Relation.union ra rb
  | Inter (a, b) ->
    let ra = exec prof a and rb = exec prof b in
    note_row_fallback n [ ra; rb ];
    D.Relation.inter ra rb
  | Diff (a, b) ->
    let ra = exec prof a and rb = exec prof b in
    note_row_fallback n [ ra; rb ];
    D.Relation.diff ra rb
  | Division (a, b) when n.vec ->
    vec_division n d a b (exec prof a) (exec prof b)
  | Division (a, b) ->
    let ra = exec prof a and rb = exec prof b in
    note_row_fallback n [ ra; rb ];
    D.Relation.division ra rb

(* ---------------- traversal ---------------- *)

(** Fold over every distinct node of the DAG (shared nodes visited once). *)
let fold_unique f (root : t) init =
  let seen = Hashtbl.create 16 in
  let rec go acc n =
    if Hashtbl.mem seen n.id then acc
    else begin
      Hashtbl.add seen n.id ();
      List.fold_left go (f n acc) (children n)
    end
  in
  go init root

(** The result [prof]'s run computed at [n]; [Not_found] if the run never
    reached [n] (a run computes every node reachable from its root). *)
let result (prof : profile) (n : t) : D.Relation.t =
  (Hashtbl.find prof n.id).result

(** Execute [root] in a fresh run and return its result beside the run's
    {!profile} — the one entry point for planned queries, registered
    views and {!Delta}'s per-round nodes alike.  No state outlives the
    run except in the returned profile, so a cached plan may run on
    several domains at once. *)
let run_profiled (root : t) : D.Relation.t * profile =
  let prof = Hashtbl.create 16 in
  let r =
    T.with_span ~cat:"phase"
      ~attrs:(fun () ->
        [ ("rows", T.Int (D.Relation.cardinality (result prof root))) ])
      "execute"
      (fun () -> exec prof root)
  in
  (r, prof)

(** {!run_profiled}, dropping the profile. *)
let run (root : t) : D.Relation.t = fst (run_profiled root)

(** Actual rows at [n], counted from the stored result when asked. *)
let rows (prof : profile) (n : t) : int option =
  Option.map
    (fun e -> D.Relation.cardinality e.result)
    (Hashtbl.find_opt prof n.id)

(* ---------------- explain ---------------- *)

let label n =
  match n.op with
  | Scan (name, _) -> "scan " ^ name
  | Empty -> "empty"
  | Filter (p, _) -> Printf.sprintf "filter [%s]" p.display
  | Project (_, c) ->
    let names = D.Schema.names n.schema in
    if names = D.Schema.names c.schema then "reorder"
    else Printf.sprintf "project [%s]" (String.concat ", " names)
  | Relabel _ ->
    Printf.sprintf "rename [%s]" (String.concat ", " (D.Schema.names n.schema))
  | Hash_join j ->
    let ln = D.Schema.names j.left.schema
    and rn = D.Schema.names j.right.schema in
    let eqs =
      List.map2
        (fun l r -> Printf.sprintf "%s = %s" (List.nth ln l) (List.nth rn r))
        (Array.to_list j.lkey) j.rkey
    in
    Printf.sprintf "hash-join [%s]%s"
      (String.concat ", " eqs)
      (match j.residual with
      | Some p -> Printf.sprintf " filter [%s]" p.display
      | None -> "")
  | Nl_join (None, _, _) -> "product"
  | Nl_join (Some p, _, _) -> Printf.sprintf "nl-join [%s]" p.display
  | Union _ -> "union"
  | Inter _ -> "intersect"
  | Diff _ -> "minus"
  | Division _ -> "divide"

(* Shared tree renderer: one operator per line, shared nodes printed once
   and referenced by [#id] afterwards; [annot n] is the per-node
   parenthetical. *)
let render ~annot (root : t) : string =
  (* nodes referenced from more than one parent get a #id tag *)
  let refs = Hashtbl.create 16 in
  let rec count n =
    let c = try Hashtbl.find refs n.id with Not_found -> 0 in
    Hashtbl.replace refs n.id (c + 1);
    if c = 0 then List.iter count (children n)
  in
  count root;
  let buf = Buffer.create 256 in
  let printed = Hashtbl.create 16 in
  let rec go indent n =
    let shared = Hashtbl.find refs n.id > 1 in
    let tag = if shared then Printf.sprintf "#%d " n.id else "" in
    if Hashtbl.mem printed n.id then
      Buffer.add_string buf
        (Printf.sprintf "%s#%d %s (shared, computed once)\n" indent n.id
           (label n))
    else begin
      Hashtbl.add printed n.id ();
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  (%s)\n" indent tag (label n) (annot n));
      List.iter (go (indent ^ "  ")) (children n)
    end
  in
  go "" root;
  Buffer.contents buf

let actual_rows prof n =
  match rows prof n with Some k -> string_of_int k | None -> "?"

(** Render the plan with estimated and (for the nodes [prof]'s run
    computed) actual row counts. *)
let explain (prof : profile) (root : t) : string =
  render root ~annot:(fun n ->
      Printf.sprintf "est=%.0f actual=%s" n.est (actual_rows prof n))

(* A node whose cardinality estimate missed by more than this factor gets
   flagged in the analyze output. *)
let est_off_factor = 10.

(* est-vs-actual error ratio, symmetric, with both sides clamped to >= 1
   so empty results don't divide by zero. *)
let est_ratio est actual =
  let e = Float.max 1. est and a = Float.max 1. (float_of_int actual) in
  Float.max (e /. a) (a /. e)

(** Would this estimate/actual pair be flagged in the analyze output? *)
let est_off ~est ~actual = est_ratio est actual > est_off_factor

(** Render the plan annotated with the run profile [prof] — the
    [qviz eval --analyze] sink.  Each executed node shows actual rows and
    wall time (children included) next to the planner's estimate, hash
    joins additionally split build vs. probe time and vectorized operators
    report their batch count; nodes whose row estimate was off by more
    than {!est_off_factor}× are flagged with [!est-off].  Times need the
    run to have had telemetry enabled; untimed nodes render [time=?]. *)
let analyze (prof : profile) (root : t) : string =
  render root ~annot:(fun n ->
      let e = Hashtbl.find_opt prof n.id in
      let time =
        match e with
        | Some e when e.ns >= 0L ->
          Printf.sprintf "time=%.3fms" (T.ns_to_ms e.ns)
        | _ -> "time=?"
      in
      let alloc =
        (* only present when the plan ran with alloc tracking on *)
        match e with
        | Some e when e.alloc >= 0. ->
          Printf.sprintf " alloc=%s" (T.bytes_to_string e.alloc)
        | _ -> ""
      in
      let detail =
        String.concat ""
          (List.map
             (fun (k, v) ->
               match k with
               | "build_ns" -> Printf.sprintf " build=%.3fms" (float_of_int v /. 1e6)
               | "probe_ns" -> Printf.sprintf " probe=%.3fms" (float_of_int v /. 1e6)
               | _ -> Printf.sprintf " %s=%d" k v)
             (match e with Some e -> e.detail | None -> []))
      in
      let flag =
        match rows prof n with
        | Some k when est_ratio n.est k > est_off_factor ->
          Printf.sprintf "  !est-off(%.0fx)" (est_ratio n.est k)
        | _ -> ""
      in
      Printf.sprintf "est=%.0f actual=%s %s%s%s%s" n.est (actual_rows prof n)
        time alloc detail flag)

(** Node computations in [prof]'s run — with hash-consing, the number of
    {e distinct} subexpressions, each computed once. *)
let total_evals (prof : profile) = Hashtbl.length prof

(** Total memo hits — how many re-evaluations sharing saved. *)
let total_hits (prof : profile) =
  Hashtbl.fold (fun _ e acc -> acc + e.hits) prof 0

(** Rows resident at the end of [prof]'s run: every memoized result
    (base-relation scans included) is held until the run returns, so this
    is also the run's high-water mark. *)
let peak_rows_resident (prof : profile) =
  Hashtbl.fold (fun _ e acc -> acc + D.Relation.cardinality e.result) prof 0
