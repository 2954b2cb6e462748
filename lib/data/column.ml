(** Typed, unboxed columns — the storage half of the columnar substrate.

    A column holds the values one attribute takes over a block of rows, in
    a representation chosen from the data itself (not the declared schema
    type, which may be [Tany]):

    - all-[Int] columns live in an int {!Bigarray} (no per-value boxing);
    - all-[Float] columns live in a float64 {!Bigarray};
    - all-[Bool] columns are bitsets (one bit per row);
    - all-[String] columns are dictionary-encoded: an int {!Bigarray} of
      codes plus a per-column {e sorted} dictionary, so code order equals
      string order and both equality {e and} range predicates on strings
      compile down to integer comparisons;
    - anything else (a [Null], or a column genuinely mixing value kinds,
      which the active-domain construction can produce) falls back to a
      boxed [Value.t array] with the exact row-at-a-time semantics.

    The selection kernels at the bottom are the vectorized inner loops the
    physical plan operators run: each fills a bit-per-row word bitmap for
    one comparison over a row range (63 rows per native-int word), and the
    caller combines bitmaps with {!wand}/{!wor}/{!wnot} — one machine op
    per 63 rows, no per-row closure dispatch on the typed fast paths.
    Counting is popcount-based ({!count_bits}) and {!sel_of_bits} converts
    a bitmap to a selection vector word-at-a-time, skipping all-zero words
    and unrolling all-one words.  Everything here is consistent with
    {!Value.compare}: within one
    column kind, the unboxed comparison order is exactly the boxed one, so
    sorting rows by columns reproduces {!Tuple.compare} order. *)

module T = Diagres_telemetry.Telemetry

(* Dictionary utilization, counted at the points where a *probe* value
   meets a dictionary: encoding a predicate constant, and translating one
   dictionary's codes into another's for a join.  hit = the value exists
   in the dictionary, miss = it does not (the probe can match nothing). *)
let c_dict_hit = T.counter "columnar.dict.hit"
let c_dict_miss = T.counter "columnar.dict.miss"

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A per-column string dictionary.  [values] is sorted ascending and
    duplicate-free, so codes compare like the strings they stand for. *)
type dict = { values : string array; code_of : (string, int) Hashtbl.t }

type t =
  | Ints of ints
  | Floats of floats
  | Bools of Bytes.t * int  (** bitset, row count *)
  | Codes of ints * dict    (** dictionary-encoded strings *)
  | Boxed of Value.t array  (** fallback: nulls or mixed kinds *)

let make_ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let make_floats n : floats =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* ---------------- bitsets ---------------- *)

let bitset_make n = Bytes.make ((n + 7) lsr 3) '\000'

let bit_get b i =
  (Char.code (Bytes.unsafe_get b (i lsr 3)) lsr (i land 7)) land 1

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

(* ---------------- basics ---------------- *)

let length = function
  | Ints a -> Bigarray.Array1.dim a
  | Floats a -> Bigarray.Array1.dim a
  | Bools (_, n) -> n
  | Codes (a, _) -> Bigarray.Array1.dim a
  | Boxed a -> Array.length a

(** Decode one cell back to a boxed value. *)
let get col i =
  match col with
  | Ints a -> Value.Int a.{i}
  | Floats a -> Value.Float a.{i}
  | Bools (b, _) -> Value.Bool (bit_get b i = 1)
  | Codes (a, d) -> Value.String d.values.(a.{i})
  | Boxed a -> a.(i)

(* ---------------- dictionaries ---------------- *)

let dict_of_strings (strings : string array) : dict =
  let seen = Hashtbl.create 64 in
  Array.iter (fun s -> if not (Hashtbl.mem seen s) then Hashtbl.add seen s ()) strings;
  let values = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort String.compare values;
  let code_of = Hashtbl.create (2 * Array.length values) in
  Array.iteri (fun c s -> Hashtbl.replace code_of s c) values;
  { values; code_of }

let dict_size (d : dict) = Array.length d.values

(** Code of [s] in [d], if present; counts the dictionary hit/miss
    telemetry (this is the probe point for predicate constants). *)
let dict_code (d : dict) s =
  match Hashtbl.find_opt d.code_of s with
  | Some c ->
    T.incr c_dict_hit;
    Some c
  | None ->
    T.incr c_dict_miss;
    None

(** Number of dictionary values strictly below [s] — the threshold that
    turns an ordered string comparison into an ordered code comparison. *)
let dict_rank (d : dict) s =
  let lo = ref 0 and hi = ref (Array.length d.values) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare d.values.(mid) s < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(** [translate ~from ~into]: per-code mapping of [from]'s codes into
    [into]'s code space, [-1] where the string is absent (it can then never
    compare equal to a real code, which is what the join build wants). *)
let translate ~(from : dict) ~(into : dict) : int array =
  Array.map
    (fun s -> match dict_code into s with Some c -> c | None -> -1)
    from.values

(* ---------------- construction ---------------- *)

(** Build the best representation for [vs].  The array is owned by the
    column afterwards (callers pass freshly built arrays). *)
let of_values (vs : Value.t array) : t =
  let n = Array.length vs in
  if n = 0 then Boxed [||]
  else begin
    let all p =
      let rec go i = i = n || (p vs.(i) && go (i + 1)) in
      go 0
    in
    match vs.(0) with
    | Value.Int _ when all (function Value.Int _ -> true | _ -> false) ->
      let a = make_ints n in
      Array.iteri
        (fun i v -> match v with Value.Int x -> a.{i} <- x | _ -> ())
        vs;
      Ints a
    | Value.Float _ when all (function Value.Float _ -> true | _ -> false) ->
      let a = make_floats n in
      Array.iteri
        (fun i v -> match v with Value.Float x -> a.{i} <- x | _ -> ())
        vs;
      Floats a
    | Value.Bool _ when all (function Value.Bool _ -> true | _ -> false) ->
      let b = bitset_make n in
      Array.iteri
        (fun i v -> match v with Value.Bool true -> bit_set b i | _ -> ())
        vs;
      Bools (b, n)
    | Value.String _ when all (function Value.String _ -> true | _ -> false) ->
      let strings =
        Array.map (function Value.String s -> s | _ -> assert false) vs
      in
      let d = dict_of_strings strings in
      let a = make_ints n in
      Array.iteri (fun i s -> a.{i} <- Hashtbl.find d.code_of s) strings;
      Codes (a, d)
    | _ -> Boxed vs
  end

(** [gather col idx]: the column restricted to the rows in [idx], in that
    order.  Keeps the representation (and shares the dictionary, which may
    then overstate the distinct count — {!distinct_count} recounts). *)
let gather col (idx : int array) : t =
  let n = Array.length idx in
  match col with
  | Ints a ->
    let out = make_ints n in
    for k = 0 to n - 1 do
      out.{k} <- a.{Array.unsafe_get idx k}
    done;
    Ints out
  | Floats a ->
    let out = make_floats n in
    for k = 0 to n - 1 do
      out.{k} <- a.{Array.unsafe_get idx k}
    done;
    Floats out
  | Bools (b, _) ->
    let out = bitset_make n in
    for k = 0 to n - 1 do
      if bit_get b (Array.unsafe_get idx k) = 1 then bit_set out k
    done;
    Bools (out, n)
  | Codes (a, d) ->
    let out = make_ints n in
    for k = 0 to n - 1 do
      out.{k} <- a.{Array.unsafe_get idx k}
    done;
    Codes (out, d)
  | Boxed a -> Boxed (Array.map (fun i -> a.(i)) idx)

(* ---------------- comparison ---------------- *)

(** Specialized two-row comparator within one column; agrees with
    {!Value.compare} on the decoded values (the dictionary is sorted, so
    code order is string order). *)
let row_compare col : int -> int -> int =
  match col with
  | Ints a -> fun i j -> Int.compare a.{i} a.{j}
  | Floats a -> fun i j -> Float.compare a.{i} a.{j}
  | Bools (b, _) -> fun i j -> Int.compare (bit_get b i) (bit_get b j)
  | Codes (a, _) -> fun i j -> Int.compare a.{i} a.{j}
  | Boxed a -> fun i j -> Value.compare a.(i) a.(j)

(** Compare cell [i] of [a] against cell [j] of [b], across columns; falls
    back to decoded {!Value.compare} when the representations differ. *)
let cell_compare a i b j =
  match (a, b) with
  | Ints x, Ints y -> Int.compare x.{i} y.{j}
  | Floats x, Floats y -> Float.compare x.{i} y.{j}
  | Bools (x, _), Bools (y, _) -> Int.compare (bit_get x i) (bit_get y j)
  | Codes (x, dx), Codes (y, dy) when dx == dy -> Int.compare x.{i} y.{j}
  | _ -> Value.compare (get a i) (get b j)

(** Cross-column two-row comparator factory: [cmp2 a b] compares row [i]
    of [a] against row [j] of [b], consistently with {!Value.compare} on
    the decoded cells.  Unlike {!cell_compare} the representation match —
    and any dictionary rank translation — happens once, outside the loop:
    this is the comparator the linear-merge set operations run, so two
    dictionary columns with different dictionaries still compare by two
    int reads per row pair (each right-hand value's rank in the left
    dictionary is precomputed). *)
let cmp2 a b : int -> int -> int =
  match (a, b) with
  | Ints x, Ints y -> fun i j -> Int.compare x.{i} y.{j}
  | Floats x, Floats y -> fun i j -> Float.compare x.{i} y.{j}
  | Bools (x, _), Bools (y, _) ->
    fun i j -> Int.compare (bit_get x i) (bit_get y j)
  | Codes (x, dx), Codes (y, dy) when dx == dy ->
    fun i j -> Int.compare x.{i} y.{j}
  | Codes (x, dx), Codes (y, dy) ->
    (* rank each of dy's values in dx once; [present] marks exact hits so
       equality is decided without touching a string in the loop *)
    let k = dict_size dy in
    let rank = Array.make k 0 and present = Bytes.make k '\000' in
    for c = 0 to k - 1 do
      let s = dy.values.(c) in
      rank.(c) <- dict_rank dx s;
      if Hashtbl.mem dx.code_of s then Bytes.set present c '\001'
    done;
    fun i j ->
      let c = y.{j} in
      let r = rank.(c) in
      if x.{i} < r then -1
      else if x.{i} = r && Bytes.get present c = '\001' then 0
      else 1
  | _ -> fun i j -> Value.compare (get a i) (get b j)

(** Union of two sorted dictionaries: the merged dictionary plus the
    translation of each input's codes into the merged code space. *)
let merge_dicts (da : dict) (db : dict) : dict * int array * int array =
  let na = Array.length da.values and nb = Array.length db.values in
  let merged = Array.make (na + nb) "" in
  let ta = Array.make na 0 and tb = Array.make nb 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na || !j < nb do
    let c =
      if !i = na then 1
      else if !j = nb then -1
      else String.compare da.values.(!i) db.values.(!j)
    in
    if c < 0 then begin
      merged.(!k) <- da.values.(!i);
      ta.(!i) <- !k;
      incr i
    end
    else if c > 0 then begin
      merged.(!k) <- db.values.(!j);
      tb.(!j) <- !k;
      incr j
    end
    else begin
      merged.(!k) <- da.values.(!i);
      ta.(!i) <- !k;
      tb.(!j) <- !k;
      incr i;
      incr j
    end;
    incr k
  done;
  let values = Array.sub merged 0 !k in
  let code_of = Hashtbl.create (2 * !k) in
  Array.iteri (fun c s -> Hashtbl.replace code_of s c) values;
  ({ values; code_of }, ta, tb)

(** [gather2 a b idx]: the column whose row [k] is row [v lsr 1] of [a]
    when [idx.(k)] is even, of [b] when odd — the gather behind the
    linear-merge set operations, whose outputs interleave rows of two
    batches.  Keeps the unboxed representation when both sides share one
    (differing dictionaries are merged, so string columns stay
    dictionary-encoded across updates); mixed representations decode to
    boxed values. *)
let gather2 a b (idx : int array) : t =
  let n = Array.length idx in
  match (a, b) with
  | Ints x, Ints y ->
    let out = make_ints n in
    for k = 0 to n - 1 do
      let v = Array.unsafe_get idx k in
      out.{k} <- (if v land 1 = 0 then x.{v lsr 1} else y.{v lsr 1})
    done;
    Ints out
  | Floats x, Floats y ->
    let out = make_floats n in
    for k = 0 to n - 1 do
      let v = Array.unsafe_get idx k in
      out.{k} <- (if v land 1 = 0 then x.{v lsr 1} else y.{v lsr 1})
    done;
    Floats out
  | Bools (x, _), Bools (y, _) ->
    let out = bitset_make n in
    for k = 0 to n - 1 do
      let v = Array.unsafe_get idx k in
      let bit =
        if v land 1 = 0 then bit_get x (v lsr 1) else bit_get y (v lsr 1)
      in
      if bit = 1 then bit_set out k
    done;
    Bools (out, n)
  | Codes (x, dx), Codes (y, dy) ->
    let d, ta, tb =
      if dx == dy then (dx, [||], [||]) else merge_dicts dx dy
    in
    let out = make_ints n in
    if dx == dy then
      for k = 0 to n - 1 do
        let v = Array.unsafe_get idx k in
        out.{k} <- (if v land 1 = 0 then x.{v lsr 1} else y.{v lsr 1})
      done
    else
      for k = 0 to n - 1 do
        let v = Array.unsafe_get idx k in
        out.{k} <-
          (if v land 1 = 0 then ta.(x.{v lsr 1}) else tb.(y.{v lsr 1}))
      done;
    Codes (out, d)
  | _ ->
    Boxed
      (Array.init n (fun k ->
           let v = idx.(k) in
           if v land 1 = 0 then get a (v lsr 1) else get b (v lsr 1)))

(** Sorted duplicate-free copy of the column, for the kinds whose unboxed
    representation is exact (ints, bools, dictionary codes): the O(n)
    single-column dedup behind wide projections, instead of a comparison
    sort of every row.  [None] for floats — [0.] and [-0.] are equal under
    {!Value.compare} but bit-distinct, so a bits-keyed dedup would keep
    both — and for boxed columns; those take the generic sort. *)
let distinct_sorted col : t option =
  match col with
  | Ints a ->
    let n = Bigarray.Array1.dim a in
    (* a single column projected out of a canonical batch is very often
       already sorted (it was the major sort key); one linear pass then
       beats the hashtable + sort by an order of magnitude at 10M+ rows *)
    let sorted =
      let rec go i =
        i >= n
        || Bigarray.Array1.unsafe_get a (i - 1) <= Bigarray.Array1.unsafe_get a i
           && go (i + 1)
      in
      n = 0 || go 1
    in
    if sorted then begin
      let m = ref (min n 1) in
      for i = 1 to n - 1 do
        if Bigarray.Array1.unsafe_get a i <> Bigarray.Array1.unsafe_get a (i - 1)
        then incr m
      done;
      let out = make_ints !m in
      if n > 0 then begin
        out.{0} <- a.{0};
        let j = ref 0 in
        for i = 1 to n - 1 do
          let v = Bigarray.Array1.unsafe_get a i in
          if v <> out.{!j} then begin
            incr j;
            out.{!j} <- v
          end
        done
      end;
      Some (Ints out)
    end
    else begin
      let seen = Hashtbl.create (min (max n 16) 1024) in
      for i = 0 to n - 1 do
        let v = Bigarray.Array1.unsafe_get a i in
        if not (Hashtbl.mem seen v) then Hashtbl.add seen v ()
      done;
      let vals = Array.make (Hashtbl.length seen) 0 in
      let j = ref 0 in
      Hashtbl.iter
        (fun v () ->
          vals.(!j) <- v;
          incr j)
        seen;
      Array.sort Int.compare vals;
      let out = make_ints (Array.length vals) in
      Array.iteri (fun i v -> out.{i} <- v) vals;
      Some (Ints out)
    end
  | Bools (b, n) ->
    let seen_t = ref false and seen_f = ref false in
    for i = 0 to n - 1 do
      if bit_get b i = 1 then seen_t := true else seen_f := true
    done;
    let m = (if !seen_f then 1 else 0) + if !seen_t then 1 else 0 in
    let out = bitset_make m in
    (* false sorts before true, so a set true bit is always the last row *)
    if !seen_t then bit_set out (m - 1);
    Some (Bools (out, m))
  | Codes (a, d) ->
    let k = dict_size d in
    let present = Bytes.make k '\000' in
    let n = Bigarray.Array1.dim a in
    for i = 0 to n - 1 do
      Bytes.unsafe_set present (Bigarray.Array1.unsafe_get a i) '\001'
    done;
    let cnt = ref 0 in
    Bytes.iter (fun c -> if c = '\001' then incr cnt) present;
    let out = make_ints !cnt in
    let j = ref 0 in
    for c = 0 to k - 1 do
      if Bytes.get present c = '\001' then begin
        out.{!j} <- c;
        incr j
      end
    done;
    Some (Codes (out, d))
  | Floats _ | Boxed _ -> None

(** Exact distinct-value count, straight off the unboxed representation:
    dictionary columns count present codes against the dictionary (no
    hashing of strings), bool columns scan the bitset, numeric columns use
    an unboxed-key hash set. *)
let distinct_count col =
  let n = length col in
  if n = 0 then 0
  else
    match col with
    | Ints a ->
      let seen = Hashtbl.create (min n 1024) in
      for i = 0 to n - 1 do
        let v = a.{i} in
        if not (Hashtbl.mem seen v) then Hashtbl.add seen v ()
      done;
      Hashtbl.length seen
    | Floats a ->
      (* key on the bit pattern so nan = nan (as Value.compare has it) *)
      let seen = Hashtbl.create (min n 1024) in
      for i = 0 to n - 1 do
        let v = Int64.bits_of_float a.{i} in
        if not (Hashtbl.mem seen v) then Hashtbl.add seen v ()
      done;
      Hashtbl.length seen
    | Bools (b, _) ->
      let seen_t = ref false and seen_f = ref false in
      for i = 0 to n - 1 do
        if bit_get b i = 1 then seen_t := true else seen_f := true
      done;
      (if !seen_t then 1 else 0) + if !seen_f then 1 else 0
    | Codes (a, d) ->
      let present = Bytes.make (dict_size d) '\000' in
      for i = 0 to n - 1 do
        Bytes.unsafe_set present a.{i} '\001'
      done;
      let c = ref 0 in
      Bytes.iter (fun b -> if b = '\001' then incr c) present;
      !c
    | Boxed a ->
      let module VH = Hashtbl.Make (struct
        type t = Value.t

        let equal = Value.equal
        let hash = Value.hash
      end) in
      let seen = VH.create (min n 1024) in
      Array.iter (fun v -> if not (VH.mem seen v) then VH.add seen v ()) a;
      VH.length seen

(* ---------------- vectorized selection kernels ---------------- *)

(** Comparison operators, mirroring [Fol.cmp] without depending on it. *)
type cmp = Clt | Cle | Ceq | Cneq | Cge | Cgt

(* ---- word bitmaps ----
   One bit per row, 63 rows per word: OCaml's native int carries 63 usable
   bits, and staying on plain ints keeps every combiner a single untagged
   machine op.  Invariant maintained by every writer here: bits at or
   beyond [len] in the last word are zero, so popcount and sel_of_bits
   never see phantom rows. *)

(** Rows per bitmap word (63: OCaml native ints are 63-bit). *)
let bits_per_word = 63

(** A word with all [bits_per_word] row bits set (as a two's-complement
    native int, that is [-1]). *)
let full_word = -1

type words = int array

(** Number of words a [len]-row bitmap occupies. *)
let words_for len = (len + bits_per_word - 1) / bits_per_word

(* mask selecting the low [m] bits, 0 <= m <= bits_per_word *)
let tail_mask m = if m >= bits_per_word then full_word else (1 lsl m) - 1

(** A bitmap filler: write the pass/fail bits for rows [lo + k],
    [0 <= k < len], into [dst] — bit [k mod 63] of word [k / 63], i.e.
    [dst] is a {e local} window whose bit 0 is row [lo].  [dst] has at
    least [words_for len] words and is owned by the caller; bits at or
    beyond [len] in the last word are left zero. *)
type filler = lo:int -> len:int -> words -> unit

(** Per-domain scratch pool for transient bitmap words and selection
    vectors.  The vectorized operators churn through one buffer per batch,
    and freshly mapped pages fault on first touch (measured in
    bench/main.ml), so steady-state batches must reuse memory.  A stack,
    not a single slot: nested connectives in one compiled predicate hold
    several buffers at once.  Buffers handed out here must never escape
    the callback. *)
module Scratch = struct
  let pool : int array list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  (** [with_ints n f]: run [f buf] with a pooled [int array] of at least
      [n] elements (contents unspecified); the buffer returns to this
      domain's pool when [f] finishes. *)
  let with_ints n f =
    let st = Domain.DLS.get pool in
    let buf =
      match !st with
      | b :: rest ->
        st := rest;
        if Array.length b >= n then b
        else Array.make (max n (2 * Array.length b)) 0
      | [] -> Array.make (max n 256) 0
    in
    Fun.protect ~finally:(fun () -> st := buf :: !st) (fun () -> f buf)

  (** Pooled word bitmap covering [len] rows (contents unspecified — every
      filler overwrites its whole window). *)
  let with_words ~len f = with_ints (words_for len) f
end

let fill_const b : filler =
 fun ~lo:_ ~len dst ->
  let nw = words_for len in
  if not b then Array.fill dst 0 nw 0
  else begin
    Array.fill dst 0 nw full_word;
    let m = len - ((nw - 1) * bits_per_word) in
    if nw > 0 then dst.(nw - 1) <- tail_mask m
  end

(** dst &= src over [nw] words. *)
let wand (dst : words) (src : words) nw =
  for w = 0 to nw - 1 do
    Array.unsafe_set dst w
      (Array.unsafe_get dst w land Array.unsafe_get src w)
  done

(** dst |= src over [nw] words. *)
let wor (dst : words) (src : words) nw =
  for w = 0 to nw - 1 do
    Array.unsafe_set dst w (Array.unsafe_get dst w lor Array.unsafe_get src w)
  done

(** dst = not dst over a [len]-row bitmap; the tail word is re-masked so
    phantom bits beyond [len] stay zero. *)
let wnot (dst : words) ~len =
  let nw = words_for len in
  for w = 0 to nw - 1 do
    Array.unsafe_set dst w (lnot (Array.unsafe_get dst w))
  done;
  if nw > 0 then begin
    let m = len - ((nw - 1) * bits_per_word) in
    dst.(nw - 1) <- dst.(nw - 1) land tail_mask m
  end

(** Set bits in one word.  SWAR over two 32-bit halves: the usual 64-bit
    magic constants overflow OCaml's 63-bit int literals. *)
let popcount x =
  let p32 v =
    let v = v - ((v lsr 1) land 0x55555555) in
    let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
    let v = (v + (v lsr 4)) land 0x0F0F0F0F in
    (* C truncates the multiply to 32 bits; OCaml ints do not, so mask
       before taking the top byte *)
    ((v * 0x01010101) land 0xFFFFFFFF) lsr 24
  in
  p32 (x land 0xFFFFFFFF) + p32 (x lsr 32)

(** Number of set bits in a [len]-row bitmap (relies on the phantom-bits-
    zero invariant). *)
let count_bits (bits : words) ~len =
  let nw = words_for len in
  let n = ref 0 in
  for w = 0 to nw - 1 do
    n := !n + popcount (Array.unsafe_get bits w)
  done;
  !n

(* Word-blocked driver: [word base m] returns the m-bit pass/fail bitmap
   for rows [base .. base + m - 1].  The per-word closure call amortizes
   over 63 rows, and each kernel's inner loop stays monomorphic with the
   comparison inlined. *)
let blocked (word : int -> int -> int) : filler =
 fun ~lo ~len dst ->
  let nw = words_for len in
  for w = 0 to nw - 1 do
    let base = lo + (w * bits_per_word) in
    let m = min bits_per_word (lo + len - base) in
    Array.unsafe_set dst w (word base m)
  done

(** Generic per-row fill from a predicate over absolute row indices — the
    fallback the vectorized filter uses for combinations with no typed
    kernel (boxed columns, cross-kind comparisons). *)
let fill_with (p : int -> bool) : filler =
  blocked (fun base m ->
      let acc = ref 0 in
      for b = 0 to m - 1 do
        if p (base + b) then acc := !acc lor (1 lsl b)
      done;
      !acc)

(* One tight word loop per operator: the match on [op] happens once,
   outside, so the loop body is a bigarray read, a compare, and an
   or-shift into the word accumulator — no branches on the result. *)
let fill_int_cmp (a : ints) op (c : int) : filler =
  let ( .%{} ) = Bigarray.Array1.unsafe_get in
  match op with
  | Clt ->
    blocked (fun base m ->
        let acc = ref 0 in
        for b = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + b} < c) lsl b)
        done;
        !acc)
  | Cle ->
    blocked (fun base m ->
        let acc = ref 0 in
        for b = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + b} <= c) lsl b)
        done;
        !acc)
  | Ceq ->
    blocked (fun base m ->
        let acc = ref 0 in
        for b = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + b} = c) lsl b)
        done;
        !acc)
  | Cneq ->
    blocked (fun base m ->
        let acc = ref 0 in
        for b = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + b} <> c) lsl b)
        done;
        !acc)
  | Cge ->
    blocked (fun base m ->
        let acc = ref 0 in
        for b = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + b} >= c) lsl b)
        done;
        !acc)
  | Cgt ->
    blocked (fun base m ->
        let acc = ref 0 in
        for b = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + b} > c) lsl b)
        done;
        !acc)

(* Float comparisons go through [Float.compare] (the total order, nan
   lowest and equal to itself) because that is what [Value.compare] — and
   therefore [Fol.cmp_eval] on non-null values — uses; native [<]/[=]
   would disagree on nan. *)
let fcmp op u v =
  let r = Float.compare u v in
  match op with
  | Clt -> r < 0
  | Cle -> r <= 0
  | Ceq -> r = 0
  | Cneq -> r <> 0
  | Cge -> r >= 0
  | Cgt -> r > 0

(* Float kernels: [Float.compare a c OP 0] is what Value.compare uses, but
   in a tight loop the allocation-free native comparisons are worth having.
   Native [<]/[<=]/[>]/[>=]/[=] agree with the total order except around
   nan, and [c] is a constant — so when [c] is not nan, the only rows the
   two disagree on are nan rows, which the total order puts below every
   real: nan < c, not (nan >= c), nan <> c.  Native comparisons return
   exactly that (false for every ordered test against nan) except for
   [Clt]/[Cle], which need the nan rows {e included}; those two instead
   test the negated opposite (not (a > c), not (a >= c)).  A nan constant
   keeps the Float.compare path. *)
let fill_float_cmp (a : floats) op (c : float) : filler =
  let ( .%{} ) = Bigarray.Array1.unsafe_get in
  if Float.is_nan c then
    blocked (fun base m ->
        let acc = ref 0 in
        for b = 0 to m - 1 do
          if fcmp op a.%{base + b} c then acc := !acc lor (1 lsl b)
        done;
        !acc)
  else
    match op with
    | Clt ->
      blocked (fun base m ->
          let acc = ref 0 in
          for b = 0 to m - 1 do
            acc := !acc lor (Bool.to_int (not (a.%{base + b} >= c)) lsl b)
          done;
          !acc)
    | Cle ->
      blocked (fun base m ->
          let acc = ref 0 in
          for b = 0 to m - 1 do
            acc := !acc lor (Bool.to_int (not (a.%{base + b} > c)) lsl b)
          done;
          !acc)
    | Ceq ->
      blocked (fun base m ->
          let acc = ref 0 in
          for b = 0 to m - 1 do
            acc := !acc lor (Bool.to_int (a.%{base + b} = c) lsl b)
          done;
          !acc)
    | Cneq ->
      blocked (fun base m ->
          let acc = ref 0 in
          for b = 0 to m - 1 do
            acc := !acc lor (Bool.to_int (not (a.%{base + b} = c)) lsl b)
          done;
          !acc)
    | Cge ->
      blocked (fun base m ->
          let acc = ref 0 in
          for b = 0 to m - 1 do
            acc := !acc lor (Bool.to_int (a.%{base + b} >= c) lsl b)
          done;
          !acc)
    | Cgt ->
      blocked (fun base m ->
          let acc = ref 0 in
          for b = 0 to m - 1 do
            acc := !acc lor (Bool.to_int (a.%{base + b} > c) lsl b)
          done;
          !acc)

let fill_int_cmp_cols (a : ints) op (b : ints) : filler =
  let ( .%{} ) = Bigarray.Array1.unsafe_get in
  match op with
  | Clt ->
    blocked (fun base m ->
        let acc = ref 0 in
        for k = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + k} < b.%{base + k}) lsl k)
        done;
        !acc)
  | Cle ->
    blocked (fun base m ->
        let acc = ref 0 in
        for k = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + k} <= b.%{base + k}) lsl k)
        done;
        !acc)
  | Ceq ->
    blocked (fun base m ->
        let acc = ref 0 in
        for k = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + k} = b.%{base + k}) lsl k)
        done;
        !acc)
  | Cneq ->
    blocked (fun base m ->
        let acc = ref 0 in
        for k = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + k} <> b.%{base + k}) lsl k)
        done;
        !acc)
  | Cge ->
    blocked (fun base m ->
        let acc = ref 0 in
        for k = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + k} >= b.%{base + k}) lsl k)
        done;
        !acc)
  | Cgt ->
    blocked (fun base m ->
        let acc = ref 0 in
        for k = 0 to m - 1 do
          acc := !acc lor (Bool.to_int (a.%{base + k} > b.%{base + k}) lsl k)
        done;
        !acc)

(* Ordered comparison against a code threshold: [rank] values sort below
   the constant, [present] says whether the constant itself is a code.
   col < s  <=>  code < rank;  col <= s  <=>  code < rank + (present?1:0). *)
let code_threshold op ~rank ~present : (cmp * int) option =
  let upper = rank + if present then 1 else 0 in
  match op with
  | Clt -> Some (Clt, rank)
  | Cle -> Some (Clt, upper)
  | Cge -> Some (Cge, rank)
  | Cgt -> Some (Cge, upper)
  | Ceq | Cneq -> None

(** Typed kernel for [col op const], if the combination supports one.
    The [Value] semantics are preserved exactly: dictionary order equals
    string order, int-vs-float compares numerically. *)
let fill_cmp_const op col (c : Value.t) : filler option =
  match (col, c) with
  | Ints a, Value.Int x -> Some (fill_int_cmp a op x)
  | Ints a, Value.Float x ->
    (* numeric cross-compare, as Value.compare does it *)
    Some (fill_with (fun i -> fcmp op (float_of_int a.{i}) x))
  | Floats a, Value.Float x -> Some (fill_float_cmp a op x)
  | Floats a, Value.Int x -> Some (fill_float_cmp a op (float_of_int x))
  | Codes (a, d), Value.String s -> (
    match op with
    | Ceq -> (
      match dict_code d s with
      | Some c -> Some (fill_int_cmp a Ceq c)
      | None -> Some (fill_const false))
    | Cneq -> (
      match dict_code d s with
      | Some c -> Some (fill_int_cmp a Cneq c)
      | None -> Some (fill_const true))
    | _ -> (
      let rank = dict_rank d s in
      let present = Hashtbl.mem d.code_of s in
      match code_threshold op ~rank ~present with
      | Some (op', thr) -> Some (fill_int_cmp a op' thr)
      | None -> None))
  | Bools (b, _), Value.Bool x ->
    let c = if x then 1 else 0 in
    Some
      (fill_with
         (fun i ->
           let v = bit_get b i in
           match op with
           | Clt -> v < c
           | Cle -> v <= c
           | Ceq -> v = c
           | Cneq -> v <> c
           | Cge -> v >= c
           | Cgt -> v > c))
  | _ -> None

(** Typed kernel for [col_a op col_b] (same row on both sides). *)
let fill_cmp_cols op a b : filler option =
  match (a, b) with
  | Ints x, Ints y -> Some (fill_int_cmp_cols x op y)
  | Floats x, Floats y -> Some (fill_with (fun i -> fcmp op x.{i} y.{i}))
  | Ints x, Floats y ->
    Some (fill_with (fun i -> fcmp op (float_of_int x.{i}) y.{i}))
  | Floats x, Ints y ->
    Some (fill_with (fun i -> fcmp op x.{i} (float_of_int y.{i})))
  | Codes (x, dx), Codes (y, dy) when dx == dy ->
    Some (fill_int_cmp_cols x op y)
  | Bools (x, _), Bools (y, _) ->
    Some
      (fill_with
         (fun i ->
           let u = bit_get x i and v = bit_get y i in
           match op with
           | Clt -> u < v
           | Cle -> u <= v
           | Ceq -> u = v
           | Cneq -> u <> v
           | Cge -> u >= v
           | Cgt -> u > v))
  | _ -> None

(** Selection vector of a bitmap: the absolute row indices (ascending,
    offset by [lo]) whose bit is set.  Word-skipping: all-zero words cost
    one compare per 63 rows, all-one words unroll to straight stores, and
    only mixed words pay the per-bit shift loop (which exits at the
    highest set bit). *)
let sel_of_bits (bits : words) ~lo ~len : int array =
  let n = count_bits bits ~len in
  let sel = Array.make n 0 in
  let nw = words_for len in
  let j = ref 0 in
  for w = 0 to nw - 1 do
    let word = Array.unsafe_get bits w in
    if word <> 0 then begin
      let base = lo + (w * bits_per_word) in
      if word = full_word then begin
        for b = 0 to bits_per_word - 1 do
          Array.unsafe_set sel (!j + b) (base + b)
        done;
        j := !j + bits_per_word
      end
      else begin
        let x = ref word and b = ref 0 in
        while !x <> 0 do
          if !x land 1 = 1 then begin
            Array.unsafe_set sel !j (base + !b);
            incr j
          end;
          x := !x lsr 1;
          incr b
        done
      end
    end
  done;
  sel

(* ---------------- unboxed join keys ---------------- *)

(** [join_codes l r]: when the two columns can serve as an equi-join key
    pair without boxing, [Some (probe, build)] where [probe i] is the int
    code of the left column's row [i] and [build j] the right column's row
    [j] {e in the left column's code space} (so plain int equality is
    value equality).  Dictionary pairs translate right codes into the left
    dictionary; absent strings map to [-1], which no probe code ever is.
    [None] when the pair needs boxed comparison (floats, mixed kinds). *)
let join_codes l r : ((int -> int) * (int -> int)) option =
  match (l, r) with
  | Ints a, Ints b -> Some ((fun i -> a.{i}), fun j -> b.{j})
  | Bools (a, _), Bools (b, _) ->
    Some ((fun i -> bit_get a i), fun j -> bit_get b j)
  | Codes (a, da), Codes (b, db) ->
    if da == db then Some ((fun i -> a.{i}), fun j -> b.{j})
    else begin
      let tr = translate ~from:db ~into:da in
      Some ((fun i -> a.{i}), fun j -> tr.(b.{j}))
    end
  | _ -> None

(* ---------------- memory accounting ---------------- *)

(* The [memory_bytes.*] gauge substrate: estimated physical bytes per
   column.  These are per-owner physical sizes, not a deduplicated heap
   census — a dictionary or Bigarray shared by several batches (zero-copy
   projection) is counted at every owner, which is the number the
   operators' working-set questions ("what does this relation cost to
   keep?") actually need. *)

let mem_word = 8

(* One bucket-array slot plus a four-word cons cell per entry; Hashtbl's
   real capacity is invisible from outside, so this is the steady-state
   load-factor estimate. *)
let mem_hashtbl_entry = 5 * mem_word

let mem_string s = (2 * mem_word) + (((String.length s / mem_word) + 1) * mem_word)

let dict_memory_bytes (d : dict) =
  Array.fold_left
    (fun acc s -> acc + mem_string s)
    (mem_word * (1 + Array.length d.values))
    d.values
  + (Hashtbl.length d.code_of * mem_hashtbl_entry)

(** Estimated physical bytes of the column: Bigarray payload for ints and
    floats, the bitset bytes for bools, codes plus dictionary storage for
    strings, boxed values for the fallback. *)
let memory_bytes = function
  | Ints a -> mem_word * Bigarray.Array1.dim a
  | Floats a -> mem_word * Bigarray.Array1.dim a
  | Bools (b, _) -> mem_word + Bytes.length b
  | Codes (a, d) -> (mem_word * Bigarray.Array1.dim a) + dict_memory_bytes d
  | Boxed a ->
    Array.fold_left
      (fun acc v -> acc + Value.memory_bytes v)
      (mem_word * (1 + Array.length a))
      a
