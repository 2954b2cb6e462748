(** Set-semantics relations: a schema plus a set of tuples, held as rows
    {e or} columns.

    The tutorial works throughout with set semantics (RA, RC, and Datalog are
    all set-based); the SQL front-end inserts explicit duplicate elimination.
    The logical value of a relation is a sorted, duplicate-free tuple set;
    physically it lives in one (or more) of three representations of that
    same set — tset, batch, arr — converted lazily and memoized:

    - [tset]: [Stdlib.Set] over [Tuple.compare] — the row-mode substrate all
      the functional operators run on;
    - [batch]: a {e canonical} {!Batch.t} (columns sorted in [Tuple.compare]
      order) — what the vectorized physical operators run on;
    - [arr]: the tuples as a sorted array — what the morsel-parallel row
      operators chunk over.

    Any representation can be derived from any other, so a relation born
    columnar (from a vectorized operator, via {!of_batch}) never pays for
    boxing unless a row-mode consumer actually asks, and vice versa.  All
    three enumerate rows in the same order, so cardinality, membership,
    and equality agree regardless of which ones exist.

    Each relation additionally carries a mutable cache of secondary hash
    indexes ({!Index}) keyed by attribute-position subsets.  The cache is
    invisible to the functional interface — it only memoizes lookups — and is
    reset whenever an operation produces a new tuple set. *)

module Tset = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

(* The shared row storage.  Fields only ever go [None] -> [Some] (under
   [lock]); the unlocked fast-path reads are safe because a published
   [Some] never changes and OCaml reads of a mutable field are atomic.
   Invariant: at least one of [tset]/[batch] is [Some] from construction. *)
type rows = {
  lock : Mutex.t;
  mutable tset : Tset.t option;
  mutable batch : Batch.t option;  (** canonical: sorted, duplicate-free *)
  mutable arr : Tuple.t array option;  (** sorted; treated as read-only *)
}

type t = {
  schema : Schema.t;
  rows : rows;
  stamp : int;  (** monotone identity of the tuple set; shared by renames *)
  indexes : Index.cache;
  stats : Stats.cache;
}

(* Monotone stamp source.  Every distinct tuple set gets a fresh stamp — so
   a rebuilt relation stored under an old name can never alias its
   predecessor's caches — while schema-only transformations (rename) keep
   the stamp: the tuple set is the same and the caches are positional.
   Atomic, because parallel operators construct relations from worker
   domains. *)
let stamp_counter = Atomic.make 0

let fresh schema rows =
  let stamp = Atomic.fetch_and_add stamp_counter 1 in
  { schema; rows; stamp; indexes = Index.fresh_cache ~owner:stamp;
    stats = Stats.fresh_cache ~owner:stamp }

(* Row-mode constructor: every new tuple set gets a fresh stamp and fresh
   (empty) index/statistics caches keyed on it. *)
let make schema tuples =
  fresh schema
    { lock = Mutex.create (); tset = Some tuples; batch = None; arr = None }

(** Columnar constructor.  [canonical] asserts the batch is already sorted
    and duplicate-free (e.g. an order-preserving selection from a canonical
    batch); otherwise it is canonicalized here. *)
let of_batch ?(canonical = false) schema (b : Batch.t) =
  Schema.check_distinct schema;
  if Batch.ncols b <> Schema.arity schema then
    Schema.error "of_batch: %d columns do not match schema %s" (Batch.ncols b)
      (Schema.to_string schema);
  let b = if canonical then b else Batch.sort_dedup b in
  fresh schema
    { lock = Mutex.create (); tset = None; batch = Some b; arr = None }

let schema r = r.schema
let stamp r = r.stamp

(* ---------------- lazy conversion ---------------- *)

let with_lock rows f =
  Mutex.lock rows.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock rows.lock) f

let arr_of_tset ts =
  let n = Tset.cardinal ts in
  if n = 0 then [||]
  else begin
    let arr = Array.make n (Tset.min_elt ts) in
    let i = ref 0 in
    Tset.iter (fun t -> arr.(!i) <- t; incr i) ts;
    arr
  end

(* The [_locked] builders assume [rows.lock] is held; they may call each
   other but never re-take the lock. *)

let arr_locked rows =
  match rows.arr with
  | Some a -> a
  | None ->
    let a =
      match (rows.tset, rows.batch) with
      | Some ts, _ -> arr_of_tset ts
      | None, Some b -> Batch.to_tuples b
      | None, None -> assert false
    in
    rows.arr <- Some a;
    a

let tset_locked rows =
  match rows.tset with
  | Some ts -> ts
  | None ->
    (* the batch is canonical, so the array is sorted and duplicate-free *)
    let ts =
      Array.fold_left (fun acc t -> Tset.add t acc) Tset.empty (arr_locked rows)
    in
    rows.tset <- Some ts;
    ts

let batch_locked ~arity rows =
  match rows.batch with
  | Some b -> b
  | None ->
    (* the array comes from the sorted set, so the batch is canonical *)
    let b = Batch.of_tuples ~arity (arr_locked rows) in
    rows.batch <- Some b;
    b

let force_tset r =
  match r.rows.tset with
  | Some ts -> ts
  | None -> with_lock r.rows (fun () -> tset_locked r.rows)

(** Tuples in sorted order, as an array — the input the morsel-parallel
    operators chunk over.  Memoized per relation; callers must treat it as
    read-only. *)
let tuples_array r =
  match r.rows.arr with
  | Some a -> a
  | None -> with_lock r.rows (fun () -> arr_locked r.rows)

(** The columnar representation, built (and memoized) from the rows on first use. *)
let batch r =
  match r.rows.batch with
  | Some b -> b
  | None ->
    with_lock r.rows (fun () ->
        batch_locked ~arity:(Schema.arity r.schema) r.rows)

(** The columnar representation if it has already been materialized — the planner's
    cheap "is this input columnar?" probe; never forces a conversion. *)
let peek_batch r = r.rows.batch

(* ---------------- cardinality, membership, traversal ---------------- *)

let cardinality r =
  match r.rows.tset with
  | Some ts -> Tset.cardinal ts
  | None -> (
    match r.rows.batch with
    | Some b -> Batch.nrows b
    | None -> Tset.cardinal (force_tset r))

let is_empty r = cardinality r = 0

let tuples r = Array.to_list (tuples_array r)

let mem tup r =
  match r.rows.tset with
  | Some ts -> Tset.mem tup ts
  | None -> (
    match r.rows.batch with
    | Some b -> Tuple.arity tup = Batch.ncols b && Batch.mem b tup
    | None -> Tset.mem tup (force_tset r))

let empty schema = make schema Tset.empty

let check_tuple schema tup =
  if Tuple.arity tup <> Schema.arity schema then
    Schema.error "tuple %s does not match schema %s" (Tuple.to_string tup)
      (Schema.to_string schema)

let add tup r =
  check_tuple r.schema tup;
  make r.schema (Tset.add tup (force_tset r))

let of_tuples schema tups =
  Schema.check_distinct schema;
  List.iter (check_tuple schema) tups;
  make schema (Tset.of_list tups)

(** Convenience constructor from value lists. *)
let of_lists schema rows = of_tuples schema (List.map Tuple.of_list rows)

(* Traversal runs off whichever representation exists, in the same (sorted)
   order; a columnar-born relation is decoded row by row without ever
   building the set. *)
let iter f r =
  match (r.rows.tset, r.rows.arr, r.rows.batch) with
  | Some ts, _, _ -> Tset.iter f ts
  | None, Some a, _ -> Array.iter f a
  | None, None, Some b -> Batch.iter f b
  | None, None, None -> assert false

let fold f r init =
  match r.rows.tset with
  | Some ts -> Tset.fold f ts init
  | None ->
    let acc = ref init in
    iter (fun t -> acc := f t !acc) r;
    !acc

let filter p r = make r.schema (Tset.filter p (force_tset r))

let for_all p r =
  match r.rows.tset with
  | Some ts -> Tset.for_all p ts
  | None -> Array.for_all p (tuples_array r)

let exists p r =
  match r.rows.tset with
  | Some ts -> Tset.exists p ts
  | None -> Array.exists p (tuples_array r)

let map schema f r =
  make schema (fold (fun t acc -> Tset.add (f t) acc) r Tset.empty)

(* All representations enumerate in [Tuple.compare] order, so two relations hold the
   same rows iff their sorted arrays match pointwise — no set forcing. *)
let same_rows a b =
  cardinality a = cardinality b
  &&
  let xs = tuples_array a and ys = tuples_array b in
  let n = Array.length xs in
  let rec go i = i = n || (Tuple.compare xs.(i) ys.(i) = 0 && go (i + 1)) in
  go 0

let equal a b = Schema.compatible a.schema b.schema && same_rows a b

(* ---------------- secondary indexes ---------------- *)

(** The cached hash index of [r] on [positions]; built on first use, under
    the cache lock (concurrent probes from several domains are safe). *)
let index r (positions : int list) : Index.t =
  Index.cache_get r.indexes ~owner:r.stamp positions (fun () ->
      Index.build (Array.of_list positions) (fun f -> iter f r))

(** Force the index on [positions] to exist — called once before a parallel
    probe phase so the workers race on a read-only structure, never on the
    lazy build. *)
let prepare_index r positions = ignore (index r positions : Index.t)

(** [matching r positions key]: tuples whose values at [positions] equal
    [key] (under {!Value.equal}), via the lazily built cached index.  An
    empty position list returns all tuples. *)
let matching r (positions : int list) (key : Value.t array) : Tuple.t list =
  if positions = [] then tuples r else Index.lookup (index r positions) key

(** Cardinality and per-column distinct counts, computed on first use and
    cached like the indexes.  Columnar relations read distinct counts
    straight off the unboxed columns (dictionary presence scans, no
    hashing of boxed values); row relations read them off cached
    single-column hash indexes, so a later equi-join on the same column
    reuses the build work. *)
let stats r : Stats.t =
  Stats.cache_get r.stats ~owner:r.stamp (fun () ->
      match peek_batch r with
      | Some b -> Stats.of_batch b
      | None ->
        { Stats.rows = cardinality r;
          distinct =
            Array.init (Schema.arity r.schema) (fun i ->
                Index.cardinal (index r [ i ])) })

let require_compatible op a b =
  if not (Schema.compatible a.schema b.schema) then
    Schema.error "%s: incompatible schemas %s vs %s" op
      (Schema.to_string a.schema) (Schema.to_string b.schema)

let union a b =
  require_compatible "union" a b;
  make (Schema.join_types a.schema b.schema)
    (Tset.union (force_tset a) (force_tset b))

let inter a b =
  require_compatible "intersect" a b;
  make a.schema (Tset.inter (force_tset a) (force_tset b))

let diff a b =
  require_compatible "except" a b;
  make a.schema (Tset.diff (force_tset a) (force_tset b))

(** [apply_delta ~inserts ~deletes r]: [r] with [deletes] removed and
    [inserts] added.  Inserts win when a tuple appears in both.  Returns
    [(r', applied_inserts, applied_deletes)] where the applied deltas are
    normalized against [r] — applied inserts are genuinely new
    ([inserts − r]) and applied deletes genuinely retracted
    ([deletes ∩ r − inserts]) — which is the exact signed delta the
    differential evaluator propagates.  The updated relation gets a fresh
    monotone stamp (so its index/statistics caches and any plan-cache
    entry keyed through {!Database.stamp} are invalidated), except when
    the normalized delta is empty, in which case [r] itself is returned
    and every cache survives.  A columnar-backed relation is updated by
    linear batch merges and stays columnar — delta batches run through
    the vectorized kernels unchanged; a row-backed one updates its
    persistent set in O(|Δ| log n). *)
let apply_delta ~inserts ~deletes r =
  require_compatible "apply_delta" r inserts;
  require_compatible "apply_delta" r deletes;
  let ins = filter (fun t -> not (mem t r)) inserts in
  let del = filter (fun t -> mem t r && not (mem t inserts)) deletes in
  let r' =
    if is_empty ins && is_empty del then r
    else
      match r.rows.tset with
      | Some ts ->
        let ts = fold (fun t acc -> Tset.remove t acc) del ts in
        let ts = fold (fun t acc -> Tset.add t acc) ins ts in
        make r.schema ts
      | None ->
        let b = batch r in
        let b = Batch.merge_diff b (batch del) in
        let b = Batch.merge_union b (batch ins) in
        of_batch ~canonical:true r.schema b
  in
  (r', ins, del)

let project names r =
  let schema = Schema.project names r.schema in
  let idx = Array.of_list (List.map (fun n -> Schema.index n r.schema) names) in
  let proj t = Array.map (Tuple.get t) idx in
  map schema proj r

let rename from_ to_ r = { r with schema = Schema.rename from_ to_ r.schema }

let rename_all names r =
  if List.length names <> Schema.arity r.schema then
    Schema.error "rename: expected %d names" (Schema.arity r.schema);
  let schema =
    List.map2 (fun (a : Schema.attribute) name -> { a with Schema.name }) r.schema names
  in
  Schema.check_distinct schema;
  { r with schema }

let product a b =
  let schema = Schema.concat_disjoint a.schema b.schema in
  let tuples =
    fold
      (fun ta acc ->
        fold (fun tb acc -> Tset.add (Tuple.concat ta tb) acc) b acc)
      a Tset.empty
  in
  make schema tuples

(** Natural join on the common attribute names.  Probes a cached hash index
    on [b]'s shared columns; key extraction works over precomputed integer
    position arrays, so no per-tuple schema lookups remain. *)
let natural_join a b =
  let shared = Schema.names (Schema.common a.schema b.schema) in
  if shared = [] then product a b
  else begin
    let ia = Array.of_list (List.map (fun n -> Schema.index n a.schema) shared) in
    let ib = List.map (fun n -> Schema.index n b.schema) shared in
    (* positions (and attributes) of b's non-shared columns *)
    let ib_rest =
      List.filter (fun i -> not (List.mem i ib))
        (List.init (Schema.arity b.schema) Fun.id)
    in
    let b_rest = List.map (fun i -> List.nth b.schema i) ib_rest in
    let schema = a.schema @ b_rest in
    let ib_rest = Array.of_list ib_rest in
    let ix = index b ib in
    let tuples =
      fold
        (fun ta acc ->
          List.fold_left
            (fun acc tb ->
              let extra = Array.map (Tuple.get tb) ib_rest in
              Tset.add (Array.append ta extra) acc)
            acc
            (Index.lookup ix (Index.key ia ta)))
        a Tset.empty
    in
    make schema tuples
  end

(** Relational division [a ÷ b]: tuples [t] over (attrs(a) − attrs(b)) such
    that for every tuple [u] in [b], [t ⋈ u ∈ a].  This is the operator the
    tutorial's Q3 ("sailors who reserved all red boats") revolves around. *)
let division a b =
  let b_names = Schema.names b.schema in
  List.iter
    (fun n ->
      if not (Schema.mem n a.schema) then
        Schema.error "division: attribute %S of divisor not in dividend" n)
    b_names;
  let keep =
    List.filter (fun n -> not (List.mem n b_names)) (Schema.names a.schema)
  in
  let candidates = project keep a in
  let required = tuples b in
  let ia = List.map (fun n -> Schema.index n a.schema) keep in
  let ja = Array.of_list (List.map (fun n -> Schema.index n a.schema) b_names) in
  let jb = Array.of_list (List.map (fun n -> Schema.index n b.schema) b_names) in
  (* index a by its [keep] part; each bucket holds the divisor-column values *)
  let ix = index a ia in
  filter
    (fun cand ->
      let have = List.map (Index.key ja) (Index.lookup ix cand) in
      List.for_all
        (fun u ->
          let uvals = Index.key jb u in
          List.exists
            (fun v ->
              let n = Array.length v in
              let rec eq i = i = n || (Value.equal v.(i) uvals.(i) && eq (i + 1)) in
              eq 0)
            have)
        required)
    candidates

(** All values appearing anywhere in the relation — the building block of the
    active domain used by calculus evaluation. *)
let active_domain r =
  fold (fun t acc -> Array.fold_left (fun acc v -> v :: acc) acc t) r []
  |> List.sort_uniq Value.compare

let pp ppf r =
  let hdr = String.concat " | " (Schema.names r.schema) in
  Fmt.pf ppf "%s@." hdr;
  Fmt.pf ppf "%s@." (String.make (String.length hdr) '-');
  iter
    (fun t ->
      Fmt.pf ppf "%s@."
        (String.concat " | " (List.map Value.to_string (Tuple.to_list t))))
    r

let to_string r = Fmt.str "%a" pp r

(* ---------------- memory accounting ---------------- *)

(** Estimated physical bytes of every materialized representation of the
    tuple set: the canonical batch, the tuple-set nodes, and the sorted
    array.  The boxed tuple payload shared between [tset] and [arr]
    is counted once; the columnar batch is independent storage and counted
    in full.  This is what the [memory_bytes.relations] gauge sums. *)
let memory_bytes (r : t) =
  let word = 8 in
  let rows = r.rows in
  let tuple_payload =
    match (rows.tset, rows.arr) with
    | Some s, _ -> Tset.fold (fun t acc -> acc + Tuple.memory_bytes t) s 0
    | None, Some a ->
      Array.fold_left (fun acc t -> acc + Tuple.memory_bytes t) 0 a
    | None, None -> 0
  in
  let tset_nodes =
    (* a balanced-tree node per element: header, left, value, right, height *)
    match rows.tset with Some s -> 5 * word * Tset.cardinal s | None -> 0
  in
  let arr_bytes =
    match rows.arr with Some a -> word * (1 + Array.length a) | None -> 0
  in
  let batch_bytes =
    match rows.batch with Some b -> Batch.memory_bytes b | None -> 0
  in
  tuple_payload + tset_nodes + arr_bytes + batch_bytes

(** Estimated heap bytes of the relation's cached secondary indexes and
    statistics (see {!Index.cache_memory_bytes}). *)
let caches_memory_bytes (r : t) =
  (Index.cache_memory_bytes r.indexes, Stats.cache_memory_bytes r.stats)
