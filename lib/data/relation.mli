(** Set-semantics relations: a schema plus a set of tuples.

    All operations are purely functional.  This module is the substrate of
    every evaluator in the library (RA, calculus, Datalog); the higher-level
    RA operators live in [Diagres_ra], while the raw set/join/division
    machinery is here.

    Physically a relation holds up to three representations of its tuple
    set — a sorted set (tset), a canonical column batch (batch) and a
    sorted array (arr) — each built lazily from another and memoized. *)

type t

val schema : t -> Schema.t

(** Monotone identity of the tuple set: every constructed relation gets a
    fresh stamp; schema-only transformations (rename) keep it, since the
    tuple set — and therefore the positional index/statistics caches — is
    unchanged.  {!Database.stamp} combines these into the database identity
    the plan cache keys on, so a rebuilt relation stored under an old name
    can never serve a stale plan, index, or statistics record. *)
val stamp : t -> int

val cardinality : t -> int
val is_empty : t -> bool

(** Tuples in sorted order. *)
val tuples : t -> Tuple.t list

(** Tuples in sorted order, as an array — what the nested-loop join walks
    its outer input over.  Memoized per relation (repeated uses in one
    evaluation share the materialization); callers must treat the array as
    read-only. *)
val tuples_array : t -> Tuple.t array

(** Build a relation from a column batch without boxing a tuple set.  The
    rows are canonicalized (sorted by [Tuple.compare] on the decoded rows,
    duplicates dropped) unless [canonical:true] asserts they already are —
    e.g. an order-preserving selection from a canonical batch.  Raises
    {!Schema.Schema_error} when the column count does not match the schema. *)
val of_batch : ?canonical:bool -> Schema.t -> Batch.t -> t

(** The columnar representation of the relation, built lazily from the rows on first
    use and memoized.  Canonical: enumerates the tuple set in sorted
    order. *)
val batch : t -> Batch.t

(** The columnar representation if it has already been materialized — never forces a
    conversion.  This is how the physical plan decides whether a vectorized
    operator applies. *)
val peek_batch : t -> Batch.t option

val mem : Tuple.t -> t -> bool
val empty : Schema.t -> t

(** Add one tuple; raises {!Schema.Schema_error} on arity mismatch. *)
val add : Tuple.t -> t -> t

(** Build from tuples; checks schema well-formedness and tuple arities. *)
val of_tuples : Schema.t -> Tuple.t list -> t

(** Convenience constructor from value lists. *)
val of_lists : Schema.t -> Value.t list list -> t

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val filter : (Tuple.t -> bool) -> t -> t
val for_all : (Tuple.t -> bool) -> t -> bool
val exists : (Tuple.t -> bool) -> t -> bool

(** [map schema f r] rebuilds the relation under a new schema. *)
val map : Schema.t -> (Tuple.t -> Tuple.t) -> t -> t

(** Equality: compatible schemas and equal tuple sets. *)
val equal : t -> t -> bool

(** Same rows irrespective of attribute names — the cross-language result
    comparison used throughout the tests and benches. *)
val same_rows : t -> t -> bool

(** Set operations; raise {!Schema.Schema_error} on arity mismatch.  Union
    joins column types positionally (see {!Schema.join_types}). *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [apply_delta ~inserts ~deletes r]: [r] with [deletes] removed and
    [inserts] added (inserts win on overlap).  Returns
    [(r', applied_inserts, applied_deletes)] with the applied deltas
    normalized against [r]: inserts genuinely new, deletes genuinely
    retracted, the two disjoint — the exact signed delta differential
    view maintenance propagates.  [r'] carries a fresh stamp (invalidating
    only this relation's caches); when the normalized delta is empty [r]
    itself is returned and its stamp and caches survive.  Columnar-backed
    relations are updated by linear canonical-batch merges and stay
    columnar; row-backed ones update the persistent set in O(|Δ| log n).
    Raises {!Schema.Schema_error} on arity mismatch. *)
val apply_delta : inserts:t -> deletes:t -> t -> t * t * t

(** π: projection (possibly nullary — the Boolean relation). *)
val project : string list -> t -> t

(** ρ: rename one attribute / all attributes. *)
val rename : string -> string -> t -> t

val rename_all : string list -> t -> t

(** ×: cartesian product; attribute sets must be disjoint. *)
val product : t -> t -> t

(** ⋈: natural join on the shared attribute names (hash-based). *)
val natural_join : t -> t -> t

(** ÷: relational division.  [division a b] returns the tuples [t] over
    [attrs a − attrs b] such that [{t} × b ⊆ a].  Note the classic caveat:
    with an empty divisor this returns {e all} candidate tuples of the
    dividend, which differs from ∀-style formulations quantifying over an
    outer relation. *)
val division : t -> t -> t

(** [matching r positions key]: the tuples of [r] whose values at
    [positions] equal [key] under {!Value.equal}, served from a lazily
    built, per-relation cached hash index ({!Index}).  An empty position
    list returns all tuples.  This is the probe primitive behind
    [natural_join], division, Datalog atom matching, and range-restricted
    calculus evaluation. *)
val matching : t -> int list -> Value.t array -> Tuple.t list

(** Build (and cache) the index on [positions] now — the row hash join
    calls it before probing, so that build and probe time can be measured
    apart. *)
val prepare_index : t -> int list -> unit

(** Cardinality and per-column distinct counts ({!Stats}), computed lazily
    on first use and cached on the relation like its secondary indexes.
    Statistics are positional, so renamed views share the cache. *)
val stats : t -> Stats.t

(** All values appearing anywhere in the relation, deduplicated. *)
val active_domain : t -> Value.t list

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Estimated physical bytes of every materialized representation of the
    tuple set (columnar batch, tuple set, sorted array) — the
    [memory_bytes.relations] gauge substrate. *)
val memory_bytes : t -> int

(** [(index_bytes, stats_bytes)] of the relation's stamp-owned caches. *)
val caches_memory_bytes : t -> int * int
