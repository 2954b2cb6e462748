(** Secondary hash indexes on attribute-position subsets.

    Built lazily by {!Relation.matching} and cached per relation; a probe
    returns the tuples whose key columns equal the probe key under
    {!Value.equal}.  The cache is stamped with its owning relation's
    identity and mutex-protected, so concurrent lazy builds from several
    domains are safe and a transplanted cache is refused instead of served
    stale. *)

type t

(** Mutable per-relation store of built indexes, keyed by position list. *)
type cache

(** A cache for the relation stamped [owner]. *)
val fresh_cache : owner:int -> cache

(** The stamp the cache was created for. *)
val cache_owner : cache -> int

(** Key of a tuple at the given positions. *)
val key : int array -> Tuple.t -> Value.t array

(** [build positions iter] indexes every tuple produced by [iter]. *)
val build : int array -> ((Tuple.t -> unit) -> unit) -> t

(** Tuples matching the key, in no particular order. *)
val lookup : t -> Value.t array -> Tuple.t list

(** Number of distinct keys. *)
val cardinal : t -> int

(** Unboxed row index: row numbers keyed by int-code key arrays — the build
    side of the vectorized hash join (key columns are ints, bools, or
    dictionary codes, so key equality is plain int equality). *)
type rows_index

(** [build_int_rows ~n key] indexes rows [0..n-1] under [key j]; per-key
    row lists come back in ascending row order. *)
val build_int_rows : n:int -> (int -> int array) -> rows_index

(** Row numbers whose key equals the probe, in ascending row order. *)
val lookup_int_rows : rows_index -> int array -> int list

(** Single-int-key variant: no key array allocated per row on either the
    build or the probe side.  Dense key ranges (row ids, dictionary codes)
    get a flat counting-sort CSR layout — O(1) boxing-free probes; sparse
    ranges fall back to a hashtable. *)
type rows_index1

val build_int1_rows : n:int -> (int -> int) -> rows_index1

(** Apply the function to each matching row, in ascending row order,
    without materializing a list. *)
val iter_int1_rows : rows_index1 -> int -> (int -> unit) -> unit

val lookup_int1_rows : rows_index1 -> int -> int list

(**/**)

(* Exposed for Relation's internal cache management: serve the cached index
   for the positions, building under the cache lock on a miss; bypass the
   cache entirely (build unmemoized) when [owner] does not match. *)
val cache_get : cache -> owner:int -> int list -> (unit -> t) -> t

(** Estimated heap bytes of one built index (buckets, keys, row-list
    cells; the indexed tuples belong to the relation and are not
    recounted). *)
val memory_bytes : t -> int

(** Estimated heap bytes of every index currently in the cache. *)
val cache_memory_bytes : cache -> int
