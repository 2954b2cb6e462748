(** Secondary hash indexes over tuple sets.

    An index maps the values a tuple takes at a fixed list of positions (the
    key columns) to the tuples carrying those values.  Relations build these
    lazily and cache them per position set ({!Relation.matching}), so a join
    or a Datalog atom match pays the build cost once and every subsequent
    probe is a hash lookup.  Keys hash with {!Value.hash}, which is
    consistent with {!Value.equal} (notably [Int 2] and [Float 2.] collide,
    as they must).

    The per-relation cache carries the {e stamp} of the relation it was
    created for and a mutex: lookups validate the owner (a cache that was
    copied onto a different tuple set is refused rather than served stale),
    and the lock makes the lazy build safe for callers on several domains
    — concurrent runs of one cached plan, views maintained from different
    domains — that probe one relation at once: whichever domain gets there
    first builds while the others wait. *)

module T = Diagres_telemetry.Telemetry

(* Cache utilization, per cache_get — and {!Relation.matching} calls it on
   every probe, so these count probes, not join-side preparations: hit =
   index served from the per-relation cache, miss = built and cached,
   bypass = built unmemoized because the cache belongs to a different
   tuple set. *)
let c_hit = T.counter "index.cache.hit"
let c_miss = T.counter "index.cache.miss"
let c_bypass = T.counter "index.cache.bypass"

module Vkey = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i =
      i = Array.length a || (Value.equal a.(i) b.(i) && go (i + 1))
    in
    go 0

  let hash k =
    Array.fold_left (fun acc v -> ((acc * 31) + Value.hash v) land max_int) 7 k
end

module H = Hashtbl.Make (Vkey)

type t = { positions : int array; table : Tuple.t list H.t }

(** Per-relation cache: one index per distinct key-column set, keyed on the
    owning relation's stamp and protected by a mutex. *)
type cache = {
  owner : int;  (** stamp of the relation this cache was created for *)
  mutex : Mutex.t;
  tbl : (int list, t) Hashtbl.t;
}

let fresh_cache ~owner : cache =
  { owner; mutex = Mutex.create (); tbl = Hashtbl.create 4 }

let cache_owner (c : cache) = c.owner

(** Key of [tup] at [positions]. *)
let key positions (tup : Tuple.t) = Array.map (Tuple.get tup) positions

(** [build positions iter] indexes every tuple produced by [iter] on
    [positions]. *)
let build (positions : int array) (iter : (Tuple.t -> unit) -> unit) : t =
  let table = H.create 64 in
  iter (fun tup ->
      let k = key positions tup in
      match H.find_opt table k with
      | Some tups -> H.replace table k (tup :: tups)
      | None -> H.add table k [ tup ]);
  { positions; table }

(** Tuples whose key columns equal [k] (any order). *)
let lookup (ix : t) (k : Value.t array) : Tuple.t list =
  match H.find_opt ix.table k with Some tups -> tups | None -> []

(** Distinct keys in the index (used for statistics and tests). *)
let cardinal (ix : t) = H.length ix.table

(* -------- unboxed int-key row indexes (vectorized hash join) -------- *)

module Ikey = struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i = Array.length a || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  let hash k = Array.fold_left (fun acc v -> ((acc * 31) + v) land max_int) 7 k
end

module Itbl = Hashtbl.Make (Ikey)

type rows_index = int list Itbl.t

(** [build_int_rows ~n key] indexes row numbers [0..n-1] by their int-code
    key [key j] — the build side of the vectorized hash join, where key
    columns are unboxed int codes (ints, bools, dictionary codes) and the
    table never touches a boxed value. *)
let build_int_rows ~n (key : int -> int array) : rows_index =
  let tbl = Itbl.create (max 64 (n / 4)) in
  (* built high-to-low so each cons lands in front: per-key lists come out
     in ascending row order, which keeps a canonical-input join's output
     canonical (no re-sort on the other side) *)
  for j = n - 1 downto 0 do
    let k = key j in
    match Itbl.find_opt tbl k with
    | Some js -> Itbl.replace tbl k (j :: js)
    | None -> Itbl.add tbl k [ j ]
  done;
  tbl

(** Row numbers whose key equals [k], in ascending row order. *)
let lookup_int_rows (tbl : rows_index) (k : int array) : int list =
  match Itbl.find_opt tbl k with Some js -> js | None -> []

(** Single-column variant of {!build_int_rows}: the key is one unboxed
    int, so neither build nor probe allocates a key array per row. *)
module Itbl1 = Hashtbl.Make (Int)

(* When the build keys occupy a dense range (the common case: row ids,
   dictionary codes, generated surrogate keys) a counting-sort CSR layout
   replaces the hashtable: two flat int arrays, no per-row boxing, O(1)
   probes.  Sparse key spaces fall back to the hashtable. *)
type rows_index1 =
  | Csr1 of { base : int; starts : int array; rows : int array }
      (* rows for key k (k - base = c): rows.(starts.(c)) .. rows.(starts.(c+1) - 1),
         ascending row order by construction *)
  | Tbl1 of int list Itbl1.t

let build_int1_rows ~n (key : int -> int) : rows_index1 =
  let dense_range () =
    if n = 0 then None
    else begin
      let lo = ref (key 0) and hi = ref (key 0) in
      for j = 1 to n - 1 do
        let k = key j in
        if k < !lo then lo := k;
        if k > !hi then hi := k
      done;
      (* cap the counting array at ~2 entries per row so a sparse key space
         cannot blow memory up; the subtraction dodges overflow on huge keys *)
      if !hi - !lo < (2 * n) + 65536 then Some (!lo, !hi - !lo + 1) else None
    end
  in
  match dense_range () with
  | Some (base, range) ->
    let starts = Array.make (range + 1) 0 in
    for j = 0 to n - 1 do
      let c = key j - base in
      starts.(c + 1) <- starts.(c + 1) + 1
    done;
    for c = 1 to range do
      starts.(c) <- starts.(c) + starts.(c - 1)
    done;
    let next = Array.sub starts 0 range in
    let rows = Array.make n 0 in
    for j = 0 to n - 1 do
      let c = key j - base in
      rows.(next.(c)) <- j;
      next.(c) <- next.(c) + 1
    done;
    Csr1 { base; starts; rows }
  | None ->
    let tbl = Itbl1.create (max 64 (n / 4)) in
    for j = n - 1 downto 0 do
      let k = key j in
      match Itbl1.find_opt tbl k with
      | Some js -> Itbl1.replace tbl k (j :: js)
      | None -> Itbl1.add tbl k [ j ]
    done;
    Tbl1 tbl

(** Apply [f] to each row whose key equals [k], in ascending row order. *)
let iter_int1_rows (t : rows_index1) (k : int) (f : int -> unit) : unit =
  match t with
  | Csr1 { base; starts; rows } ->
    let c = k - base in
    if c >= 0 && c < Array.length starts - 1 then
      for x = Array.unsafe_get starts c to Array.unsafe_get starts (c + 1) - 1 do
        f (Array.unsafe_get rows x)
      done
  | Tbl1 tbl -> (
    match Itbl1.find_opt tbl k with Some js -> List.iter f js | None -> ())

(** Row numbers whose key equals [k], in ascending row order. *)
let lookup_int1_rows (t : rows_index1) (k : int) : int list =
  match t with
  | Csr1 _ ->
    let acc = ref [] in
    iter_int1_rows t k (fun j -> acc := j :: !acc);
    List.rev !acc
  | Tbl1 tbl -> (
    match Itbl1.find_opt tbl k with Some js -> js | None -> [])

(** [cache_get c ~owner positions build]: the cached index for [positions],
    building (under the cache lock) on first use.  If [owner] does not match
    the cache's stamp — a cache transplanted onto a rebuilt tuple set — the
    cache is bypassed and the index built unmemoized, so a stale entry can
    never be served. *)
let cache_get (c : cache) ~owner positions (build : unit -> t) : t =
  if c.owner <> owner then begin
    T.incr c_bypass;
    build ()
  end
  else begin
    Mutex.lock c.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) @@ fun () ->
    match Hashtbl.find_opt c.tbl positions with
    | Some ix ->
      T.incr c_hit;
      ix
    | None ->
      T.incr c_miss;
      let ix = build () in
      Hashtbl.add c.tbl positions ix;
      ix
  end

(* ---------------- memory accounting ---------------- *)

(** Estimated heap bytes of one built index: the bucket table, the boxed
    key arrays, and the per-tuple list cells.  The indexed tuples
    themselves belong to the relation and are not recounted. *)
let memory_bytes (ix : t) =
  let word = 8 in
  let entries = H.length ix.table in
  let payload =
    H.fold
      (fun k tups acc ->
        acc
        + (word * (1 + Array.length k))             (* the key array *)
        + Array.fold_left
            (fun a v -> a + Value.memory_bytes v) 0 k
        + (3 * word * List.length tups))            (* list cons cells *)
      ix.table 0
  in
  (word * Array.length ix.positions) + (5 * word * entries) + payload

(** Estimated heap bytes of every index currently cached. *)
let cache_memory_bytes (c : cache) =
  Mutex.lock c.mutex;
  let n = Hashtbl.fold (fun _ ix acc -> acc + memory_bytes ix) c.tbl 0 in
  Mutex.unlock c.mutex;
  n
