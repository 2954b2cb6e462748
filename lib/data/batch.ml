(** Fixed-width batches of columns — the unit the vectorized operators
    exchange.  A batch is [nrows] rows across [cols] columns (the explicit
    row count keeps nullary relations honest).  A batch is {e canonical}
    when its rows are sorted ascending by {!row_compare} and duplicate-free
    — exactly the order {!Tuple.compare} gives a relation's tuple set, so
    a canonical batch and the [Tset.t] it mirrors enumerate identically. *)

type t = { nrows : int; cols : Column.t array }

let nrows b = b.nrows
let ncols b = Array.length b.cols
let cols b = b.cols

(** Assemble a batch from columns (all of length [nrows]; a nullary batch
    passes an empty column array). *)
let make ~nrows cols : t = { nrows; cols }

let of_tuples ~arity (tups : Tuple.t array) : t =
  let n = Array.length tups in
  let cols =
    Array.init arity (fun c ->
        Column.of_values (Array.init n (fun i -> tups.(i).(c))))
  in
  { nrows = n; cols }

(** Decode row [i] back to a boxed tuple. *)
let tuple_at b i : Tuple.t =
  Array.map (fun col -> Column.get col i) b.cols

let iter f b =
  for i = 0 to b.nrows - 1 do
    f (tuple_at b i)
  done

let fold f acc b =
  let acc = ref acc in
  for i = 0 to b.nrows - 1 do
    acc := f !acc (tuple_at b i)
  done;
  !acc

let to_tuples b : Tuple.t array = Array.init b.nrows (tuple_at b)

(** Rows [idx] (in that order) of [b] — the gather behind selection
    vectors and join outputs. *)
let gather b (idx : int array) : t =
  { nrows = Array.length idx;
    cols = Array.map (fun c -> Column.gather c idx) b.cols }

(** Rows of [b] whose bit is set in the word bitmap [bits] (covering all
    [nrows b] rows) — how the vectorized filter materializes its
    survivors.  The selection vector is built once word-skipping and shared
    across columns, then freed with the call. *)
let gather_bits b (bits : Column.words) : t =
  gather b (Column.sel_of_bits bits ~lo:0 ~len:b.nrows)

(** Column subset [which] of [b], zero-copy — the vectorized projection:
    dropped columns are never touched. *)
let columns b (which : int array) : t =
  { nrows = b.nrows; cols = Array.map (fun c -> b.cols.(c)) which }

(** Lexicographic row comparator, consistent with {!Tuple.compare} on the
    decoded rows. *)
let row_compare b : int -> int -> int =
  let cmps = Array.map Column.row_compare b.cols in
  fun i j ->
    let rec go c =
      if c = Array.length cmps then 0
      else
        let r = cmps.(c) i j in
        if r <> 0 then r else go (c + 1)
    in
    go 0

let is_canonical b =
  let cmp = row_compare b in
  let rec go i = i >= b.nrows || (cmp (i - 1) i < 0 && go (i + 1)) in
  b.nrows = 0 || go 1

(** The comparison-sort canonicalization: a stable merge sort of the row
    indexes under {!row_compare}, then the first row of each run of equal
    rows kept. *)
let sort_dedup_compare b : t =
  if ncols b = 0 then { b with nrows = min b.nrows 1 }
  else begin
    let n = b.nrows in
    let idx = Array.init n (fun i -> i) in
    let cmp = row_compare b in
    Array.stable_sort cmp idx;
    let sel = Array.make n 0 and kept = ref 0 in
    for k = 0 to n - 1 do
      if k = 0 || cmp idx.(k - 1) idx.(k) <> 0 then begin
        sel.(!kept) <- idx.(k);
        incr kept
      end
    done;
    gather b (if !kept = n then sel else Array.sub sel 0 !kept)
  end

(* Bits needed to write [n >= 0] in binary. *)
let bits_for n =
  let rec go k = if n lsr k = 0 then k else go (k + 1) in
  go 0

(* Radix keys hold each column's offset from its minimum, earlier columns
   in more significant bits, and the row index in the low bits.  [None]
   when a column is not an int, code or bool column, or when the packed
   width would pass 62 bits. *)
let packing b : (int array * int array * int) option =
  let nc = ncols b in
  let mins = Array.make nc 0 and widths = Array.make nc 0 in
  let idx_bits = bits_for b.nrows in
  let range = function
    | Column.Ints a | Column.Codes (a, _) ->
      let lo = ref max_int and hi = ref min_int in
      for i = 0 to Bigarray.Array1.dim a - 1 do
        let v = Bigarray.Array1.unsafe_get a i in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done;
      let span = !hi - !lo in
      (* a negative span is an overflow: the values need all 63 bits *)
      if span < 0 then None else Some (!lo, span)
    | Column.Bools _ -> Some (0, 1)
    | Column.Floats _ | Column.Boxed _ -> None
  in
  let rec go c total =
    if c = nc then Some (mins, widths, idx_bits)
    else
      match range b.cols.(c) with
      | None -> None
      | Some (lo, span) ->
        let w = bits_for span in
        if total + w > 62 then None
        else begin
          mins.(c) <- lo;
          widths.(c) <- w;
          go (c + 1) (total + w)
        end
  in
  if nc = 0 || b.nrows = 0 then None else go 0 idx_bits

(** Whether {!sort_dedup} takes the radix path on [b] (exposed for
    tests). *)
let radix_eligible b = packing b <> None

(* LSD radix sort of [keys] on bits [lo, lo + bits), in passes of at most
   11 bits, and of fewer for short arrays, so that clearing the buckets
   never costs much more than the keys themselves.  Stable, so keys equal
   on those bits keep their order. *)
let radix_sort (keys : int array) ~lo ~bits : int array =
  if bits = 0 then keys
  else begin
    let n = Array.length keys in
    let digit = max 4 (min 11 (bits_for n)) in
    let passes = (bits + digit - 1) / digit in
    let w = (bits + passes - 1) / passes in
    let size = 1 lsl w and mask = (1 lsl w) - 1 in
    let count = Array.make size 0 in
    let src = ref keys and dst = ref (Array.make n 0) in
    for p = 0 to passes - 1 do
      let sh = lo + (p * w) and s = !src and d = !dst in
      Array.fill count 0 size 0;
      for i = 0 to n - 1 do
        let k = (Array.unsafe_get s i lsr sh) land mask in
        Array.unsafe_set count k (Array.unsafe_get count k + 1)
      done;
      let sum = ref 0 in
      for k = 0 to size - 1 do
        let c = Array.unsafe_get count k in
        Array.unsafe_set count k !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let key = Array.unsafe_get s i in
        let k = (key lsr sh) land mask in
        let pos = Array.unsafe_get count k in
        Array.unsafe_set d pos key;
        Array.unsafe_set count k (pos + 1)
      done;
      src := d;
      dst := s
    done;
    !src
  end

let sort_dedup_radix b (mins, widths, idx_bits) : t =
  let n = b.nrows in
  let keys = Array.init n (fun i -> i) in
  let shift = ref idx_bits in
  for c = ncols b - 1 downto 0 do
    let w = widths.(c) and m = mins.(c) and s = !shift in
    if w > 0 then begin
      (match b.cols.(c) with
      | Column.Ints a | Column.Codes (a, _) ->
        for i = 0 to n - 1 do
          Array.unsafe_set keys i
            (Array.unsafe_get keys i lor ((Bigarray.Array1.unsafe_get a i - m) lsl s))
        done
      | Column.Bools (bits, _) ->
        for i = 0 to n - 1 do
          Array.unsafe_set keys i (Array.unsafe_get keys i lor (Column.bit_get bits i lsl s))
        done
      | Column.Floats _ | Column.Boxed _ -> assert false);
      shift := s + w
    end
  done;
  (* the keys start in row order, so sorting the value bits stably sorts
     the whole keys *)
  let sorted = radix_sort keys ~lo:idx_bits ~bits:(!shift - idx_bits) in
  let mask = (1 lsl idx_bits) - 1 in
  let sel = Array.make n 0 and kept = ref 0 in
  for k = 0 to n - 1 do
    let key = Array.unsafe_get sorted k in
    if k = 0 || key lsr idx_bits <> Array.unsafe_get sorted (k - 1) lsr idx_bits then begin
      Array.unsafe_set sel !kept (key land mask);
      incr kept
    end
  done;
  gather b (if !kept = n then sel else Array.sub sel 0 !kept)

(** Canonicalize: sort rows ascending, drop duplicates.  Already-canonical
    batches are returned as-is (one comparator pass, no copy).  A single
    exactly-represented column dedups off its value/code domain.  When
    every column holds ints, dictionary codes or bools and their value
    ranges fit, each row packs into one int key — per column its offset
    from the column minimum, earlier columns more significant, the row
    index in the low bits — and an LSD radix sort orders the keys; since
    dictionaries are sorted, code order is string order and the result is
    exactly {!Tuple.compare} order.  Other batches take
    {!sort_dedup_compare}. *)
let sort_dedup b : t =
  if b.nrows <= 1 && ncols b > 0 then b
  else if ncols b = 0 then { b with nrows = min b.nrows 1 }
  else
    match
      (* single exactly-represented column: O(n) dedup off the value/code
         domain instead of a comparison sort over every row *)
      if ncols b = 1 then Column.distinct_sorted b.cols.(0) else None
    with
    | Some c -> { nrows = Column.length c; cols = [| c |] }
    | None -> (
      if is_canonical b then b
      else
        match packing b with
        | Some p -> sort_dedup_radix b p
        | None -> sort_dedup_compare b)

(* ---------------- linear-merge set operations ----------------

   Canonical batches enumerate their rows in [Tuple.compare] order, so the
   set operations are single linear merges — no hashing, no boxing, no
   sort.  All three require both inputs canonical and of equal arity (the
   callers check schema compatibility); outputs are canonical by
   construction.  The row comparator is built once per merge
   ({!Column.cmp2}), so differing string dictionaries cost a rank
   translation up front rather than a decode per comparison. *)

(** Row [i] of [a] vs row [j] of [b], lexicographically. *)
let cross_compare a b : int -> int -> int =
  let cmps =
    Array.init (ncols a) (fun c -> Column.cmp2 a.cols.(c) b.cols.(c))
  in
  let n = Array.length cmps in
  fun i j ->
    let rec go c =
      if c = n then 0
      else
        let r = cmps.(c) i j in
        if r <> 0 then r else go (c + 1)
    in
    go 0

(** a ∪ b.  Output rows interleave both inputs ({!Column.gather2}). *)
let merge_union a b : t =
  if ncols a = 0 then
    { nrows = (if a.nrows > 0 || b.nrows > 0 then 1 else 0); cols = [||] }
  else if a.nrows = 0 then b
  else if b.nrows = 0 then a
  else begin
    let cmp = cross_compare a b in
    let idx = Array.make (a.nrows + b.nrows) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < a.nrows && !j < b.nrows do
      let c = cmp !i !j in
      if c < 0 then begin
        idx.(!k) <- !i lsl 1;
        incr i
      end
      else if c > 0 then begin
        idx.(!k) <- (!j lsl 1) lor 1;
        incr j
      end
      else begin
        idx.(!k) <- !i lsl 1;
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < a.nrows do
      idx.(!k) <- !i lsl 1;
      incr i;
      incr k
    done;
    while !j < b.nrows do
      idx.(!k) <- (!j lsl 1) lor 1;
      incr j;
      incr k
    done;
    let idx = if !k = Array.length idx then idx else Array.sub idx 0 !k in
    { nrows = Array.length idx;
      cols = Array.mapi (fun c ca -> Column.gather2 ca b.cols.(c) idx) a.cols }
  end

(* Intersection and difference both select a subsequence of [a]'s rows, so
   they share one merge loop and a plain gather. *)
let merge_select ~keep_match a b : t =
  if ncols a = 0 then
    let nrows =
      if keep_match then min a.nrows b.nrows
      else if b.nrows = 0 then a.nrows
      else 0
    in
    { nrows; cols = [||] }
  else if a.nrows = 0 || (b.nrows = 0 && keep_match) then
    gather a [||]
  else if b.nrows = 0 then a
  else begin
    let cmp = cross_compare a b in
    let sel = Array.make a.nrows 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < a.nrows && !j < b.nrows do
      let c = cmp !i !j in
      if c < 0 then begin
        if not keep_match then begin
          sel.(!k) <- !i;
          incr k
        end;
        incr i
      end
      else if c > 0 then incr j
      else begin
        if keep_match then begin
          sel.(!k) <- !i;
          incr k
        end;
        incr i;
        incr j
      end
    done;
    if not keep_match then
      while !i < a.nrows do
        sel.(!k) <- !i;
        incr k;
        incr i
      done;
    if !k = a.nrows then a else gather a (Array.sub sel 0 !k)
  end

(** a ∩ b. *)
let merge_inter a b : t = merge_select ~keep_match:true a b

(** a − b. *)
let merge_diff a b : t = merge_select ~keep_match:false a b

(** Binary search of boxed tuple [tup] in a {e canonical} batch. *)
let mem b (tup : Tuple.t) : bool =
  let cmp_row i =
    (* compare row i against tup, column-wise *)
    let rec go c =
      if c = ncols b then 0
      else
        let r = Value.compare (Column.get b.cols.(c) i) tup.(c) in
        if r <> 0 then r else go (c + 1)
    in
    go 0
  in
  if ncols b = 0 then b.nrows > 0 && Array.length tup = 0
  else begin
    let lo = ref 0 and hi = ref (b.nrows - 1) and found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let r = cmp_row mid in
      if r = 0 then found := true
      else if r < 0 then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

(** Estimated physical bytes of the batch's columns
    ({!Column.memory_bytes}); zero-copy column sharing between batches is
    counted at every owner. *)
let memory_bytes (b : t) =
  Array.fold_left (fun acc c -> acc + Column.memory_bytes c) 8 b.cols
