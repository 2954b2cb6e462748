(* Columnar substrate + vectorized operators.

   Three layers of coverage:

   - unit tests for the storage pieces: dictionary encoding roundtrips
     (sorted codes, so code order = string order), the word-bitmap
     kernels (blocked comparison fillers, wand/wor/wnot, popcount,
     word-skipping selection vectors) checked bit-for-bit against the
     row semantics at unaligned offsets and lengths, the scratch pool,
     batch canonicalization, and the columnar statistics fast path;

   - vectorized division (sorted-group merge) against the reference
     evaluator, including the empty-divisor caveat and a nullary
     quotient;

   - a qgen-driven 500-query differential: for each generated well-typed
     RA query, the vectorized planned evaluator, the row-mode planned
     evaluator, and the naive
     tree-walking evaluator must agree — at 1 and at 4 domains, so the
     batched kernels also run through the domain pool. *)

module D = Diagres_data
module C = D.Column
module V = D.Value
module F = Diagres_logic.Fol
module Plan = Diagres_ra.Plan
module Planner = Diagres_ra.Planner
module Plan_cache = Diagres_ra.Plan_cache
module Pool = Diagres_pool.Pool
module T = Diagres_telemetry.Telemetry
module Q = Diagres.Qgen

let db = Testutil.db
let schemas = Testutil.schemas

(* Run [f] with the pool at [domains] and the vectorized operators forced
   on tiny inputs: [vec_threshold = 0] marks every filter/project/join
   vectorized, [batch_rows = 3] forces multi-batch execution on the sample
   relations (the filter rounds it up to one 63-row word per batch), and
   [par_threshold = 0] routes the batches through the pool.  With
   [~columnar:false] the planner builds every node in row mode instead
   ([vec_threshold = max_int]), so the same forcing covers both kernel
   families.  The kernel choice is fixed at plan time and the plan cache
   key does not carry it, so the cache is cleared on entry and exit. *)
let forcing ?(columnar = true) domains f =
  let old_size = Pool.size () in
  let old_thr = !Plan.par_threshold in
  let old_vec = !Plan.vec_threshold and old_batch = !Plan.batch_rows in
  Pool.set_size domains;
  Plan.par_threshold := 0;
  Plan.vec_threshold := (if columnar then 0 else max_int);
  Plan.batch_rows := 3;
  Plan_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Pool.set_size old_size;
      Plan.par_threshold := old_thr;
      Plan.vec_threshold := old_vec;
      Plan.batch_rows := old_batch;
      Plan_cache.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Columns: dictionary encoding.                                       *)

let test_dict_roundtrip () =
  let strings = [| "red"; "green"; "red"; "blue"; "green"; "red" |] in
  let vs = Array.map (fun s -> V.String s) strings in
  let col = C.of_values vs in
  (match col with
  | C.Codes (codes, d) ->
    (* decode = identity *)
    Array.iteri
      (fun i s ->
        Alcotest.(check string) "decode" s
          (match C.get col i with V.String s' -> s' | _ -> "?"))
      strings;
    (* the dictionary is sorted, so code order is string order *)
    Alcotest.(check (list string)) "sorted dictionary"
      [ "blue"; "green"; "red" ]
      (Array.to_list d.C.values);
    for i = 0 to Array.length strings - 1 do
      for j = 0 to Array.length strings - 1 do
        let by_code = compare codes.{i} codes.{j}
        and by_string = String.compare strings.(i) strings.(j) in
        if compare by_code 0 <> compare by_string 0 then
          Alcotest.failf "code order disagrees at (%d, %d)" i j
      done
    done
  | _ -> Alcotest.fail "string column did not dictionary-encode");
  Alcotest.(check int) "distinct off the dictionary" 3 (C.distinct_count col)

(* run a const-comparison filler over [lo, lo+len) and return the
   selected absolute rows *)
let run_const col op c ~lo ~len =
  match C.fill_cmp_const op col c with
  | None -> Alcotest.fail "expected a typed kernel"
  | Some f ->
    let bits = Array.make (max 1 (C.words_for len)) 0 in
    f ~lo ~len bits;
    Array.to_list (C.sel_of_bits bits ~lo ~len)

let test_dict_ordered_const () =
  (* ordered comparisons against constants absent from the dictionary *)
  let col =
    C.of_values (Array.map (fun s -> V.String s) [| "b"; "d"; "f" |])
  in
  let run op c = run_const col op (V.String c) ~lo:0 ~len:3 in
  Alcotest.(check (list int)) "< c (absent)" [ 0 ] (run C.Clt "c");
  Alcotest.(check (list int)) "<= d (present)" [ 0; 1 ] (run C.Cle "d");
  Alcotest.(check (list int)) "> d (present)" [ 2 ] (run C.Cgt "d");
  Alcotest.(check (list int)) ">= e (absent)" [ 2 ] (run C.Cge "e");
  Alcotest.(check (list int)) "= e (absent)" [] (run C.Ceq "e");
  Alcotest.(check (list int)) "<> d" [ 0; 2 ] (run C.Cneq "d")

(* ------------------------------------------------------------------ *)
(* Word-bitmap kernels vs the row semantics.                           *)

let all_ops = [ C.Clt; C.Cle; C.Ceq; C.Cneq; C.Cge; C.Cgt ]

let fol_of : C.cmp -> F.cmp = function
  | C.Ceq -> F.Eq
  | C.Cneq -> F.Neq
  | C.Clt -> F.Lt
  | C.Cle -> F.Le
  | C.Cgt -> F.Gt
  | C.Cge -> F.Ge

(* Windows that exercise word alignment: full array (not a multiple of
   63), exactly one word, straddling a word boundary at an unaligned lo,
   a short tail, an empty range, and a 63-aligned interior word. *)
let windows n =
  [ (0, n); (0, min n 63); (5, min (n - 5) 70); (n - 4, 4); (5, 0);
    (63, min (n - 63) 63) ]

(* The specification: bit k of the filled window is set iff the decoded
   row [lo + k] satisfies [Fol.cmp_eval op row const] — the exact
   semantics the row evaluator and the generic fallback use. *)
let check_against_rows name col op (c : V.t) =
  let n = C.length col in
  List.iter
    (fun (lo, len) ->
      let got = run_const col op c ~lo ~len in
      let expected = ref [] in
      for i = lo + len - 1 downto lo do
        if F.cmp_eval (fol_of op) (C.get col i) c then
          expected := i :: !expected
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "%s lo=%d len=%d" name lo len)
        !expected got)
    (windows n)

let test_int_kernel_vs_rows () =
  (* 130 rows: not a multiple of 63, spans three words *)
  let col =
    C.of_values (Array.init 130 (fun i -> V.Int ((i * 7 mod 29) - 11)))
  in
  List.iter
    (fun op ->
      List.iter
        (fun c -> check_against_rows "int" col op (V.Int c))
        [ -11; 0; 5; 99 ])
    all_ops

let test_float_kernel_vs_rows () =
  (* nan rows must follow the Value.compare total order (nan lowest),
     which the native-comparison fast paths emulate by negation *)
  let specials = [| Float.nan; Float.neg_infinity; -1.5; 0.; 2.5; Float.infinity |] in
  let col =
    C.of_values (Array.init 130 (fun i -> V.Float specials.(i mod 6)))
  in
  List.iter
    (fun op ->
      List.iter
        (fun c -> check_against_rows "float" col op (V.Float c))
        [ 0.; 2.5; Float.nan; Float.neg_infinity ])
    all_ops

let test_cols_kernel_vs_rows () =
  let a = C.of_values (Array.init 130 (fun i -> V.Int (i mod 7)))
  and b = C.of_values (Array.init 130 (fun i -> V.Int ((i * 3) mod 7))) in
  List.iter
    (fun op ->
      match C.fill_cmp_cols op a b with
      | None -> Alcotest.fail "int col-col kernel missing"
      | Some f ->
        List.iter
          (fun (lo, len) ->
            let bits = Array.make (max 1 (C.words_for len)) 0 in
            f ~lo ~len bits;
            let got = Array.to_list (C.sel_of_bits bits ~lo ~len) in
            let expected = ref [] in
            for i = lo + len - 1 downto lo do
              if F.cmp_eval (fol_of op) (C.get a i) (C.get b i) then
                expected := i :: !expected
            done;
            Alcotest.(check (list int))
              (Printf.sprintf "cols lo=%d len=%d" lo len)
              !expected got)
          (windows 130))
    all_ops

let test_word_combiners () =
  (* wand / wor / wnot against per-row boolean algebra, on a length that
     ends mid-word so the wnot tail re-mask is exercised *)
  let n = 130 in
  let p i = i mod 3 = 0 and q i = i mod 5 <> 1 in
  let fill pred =
    let bits = Array.make (C.words_for n) 0 in
    (C.fill_with (fun i -> pred i)) ~lo:0 ~len:n bits;
    bits
  in
  let sel bits = Array.to_list (C.sel_of_bits bits ~lo:0 ~len:n) in
  let expect pred =
    List.filter pred (List.init n Fun.id)
  in
  let band = fill p in
  C.wand band (fill q) (C.words_for n);
  Alcotest.(check (list int)) "wand" (expect (fun i -> p i && q i)) (sel band);
  let bor = fill p in
  C.wor bor (fill q) (C.words_for n);
  Alcotest.(check (list int)) "wor" (expect (fun i -> p i || q i)) (sel bor);
  let bnot = fill p in
  C.wnot bnot ~len:n;
  Alcotest.(check (list int)) "wnot" (expect (fun i -> not (p i))) (sel bnot);
  (* the phantom-bits-zero invariant survives complement: counts add up *)
  Alcotest.(check int) "wnot count"
    (n - C.count_bits (fill p) ~len:n)
    (C.count_bits bnot ~len:n)

let test_popcount () =
  Alcotest.(check int) "0" 0 (C.popcount 0);
  Alcotest.(check int) "full word" 63 (C.popcount C.full_word);
  Alcotest.(check int) "sign bit" 1 (C.popcount min_int);
  Alcotest.(check int) "one" 1 (C.popcount 1);
  let naive x =
    let n = ref 0 and x = ref x in
    while !x <> 0 do
      n := !n + (!x land 1);
      x := !x lsr 1
    done;
    !n
  in
  let st = Random.State.make [| 0xbeef |] in
  for _ = 1 to 1000 do
    let x = Random.State.bits64 st |> Int64.to_int in
    Alcotest.(check int) "random word" (naive x) (C.popcount x)
  done

let test_selection_edges () =
  let col = C.of_values (Array.map (fun i -> V.Int i) [| 1; 2; 3; 4; 5 |]) in
  let sel op c = run_const col op (V.Int c) ~lo:0 ~len:5 in
  Alcotest.(check (list int)) "empty" [] (sel C.Cgt 99);
  Alcotest.(check (list int)) "full" [ 0; 1; 2; 3; 4 ] (sel C.Cle 99);
  Alcotest.(check (list int)) "singleton" [ 2 ] (sel C.Ceq 3);
  (* an empty range is legal (last batch of a multiple-of-batch input) *)
  Alcotest.(check (list int)) "empty range" []
    (run_const col C.Ceq (V.Int 3) ~lo:5 ~len:0);
  (* the all-ones unrolled path: a full word plus an unaligned tail *)
  let big = C.of_values (Array.init 100 (fun i -> V.Int i)) in
  Alcotest.(check (list int)) "all-ones words"
    (List.init 100 Fun.id)
    (run_const big C.Cge (V.Int 0) ~lo:0 ~len:100)

let test_scratch_pool () =
  (* nested holds are distinct buffers (the pool is a stack)... *)
  C.Scratch.with_words ~len:200 (fun a ->
      C.Scratch.with_words ~len:200 (fun b ->
          Alcotest.(check bool) "nested buffers distinct" false (a == b)));
  (* ...and sequential uses reuse the same buffer (identity probe only:
     the buffer is never read after release) *)
  let probe = ref [||] in
  C.Scratch.with_words ~len:100 (fun a -> probe := a);
  C.Scratch.with_words ~len:100 (fun b ->
      Alcotest.(check bool) "sequential reuse" true (b == !probe));
  (* a too-small pooled buffer is replaced, never resized in place *)
  C.Scratch.with_ints 5 (fun _ -> ());
  C.Scratch.with_ints 10_000 (fun b ->
      Alcotest.(check bool) "grown" true (Array.length b >= 10_000))

(* A filter that keeps every row must return the input relation itself
   (no copy); one that keeps none must return an empty relation. *)
let test_filter_full_empty_via_plan () =
  forcing 1 (fun () ->
      let parse = Diagres_ra.Parser.parse in
      let full = Plan.run (Planner.plan db (parse "select[sid >= 0](Sailor)"))
      and none =
        Plan.run (Planner.plan db (parse "select[sid < 0](Sailor)"))
      in
      Testutil.check_same_rows "full selection" D.Sample_db.sailors full;
      Alcotest.(check int) "empty selection" 0 (D.Relation.cardinality none))

(* ------------------------------------------------------------------ *)
(* Batches and relations.                                              *)

let test_of_batch_canonicalizes () =
  let mk l = Array.map (fun i -> V.Int i) (Array.of_list l) in
  let tups = [| mk [ 3; 1 ]; mk [ 1; 2 ]; mk [ 3; 1 ]; mk [ 1; 1 ] |] in
  let b = D.Batch.of_tuples ~arity:2 tups in
  let schema =
    [ { D.Schema.name = "x"; ty = V.Tint };
      { D.Schema.name = "y"; ty = V.Tint } ]
  in
  let r = D.Relation.of_batch schema b in
  let expected = D.Relation.of_tuples schema (Array.to_list tups) in
  Testutil.check_same_rows "sorted + deduped" expected r;
  Alcotest.(check int) "3 distinct rows" 3 (D.Relation.cardinality r);
  (* a columnar-born relation converts back to rows on demand *)
  Alcotest.(check bool) "mem decodes" true
    (D.Relation.mem (mk [ 1; 2 ]) r);
  Alcotest.(check bool) "mem rejects" false
    (D.Relation.mem (mk [ 2; 1 ]) r)

let test_distinct_sorted_paths () =
  (* the single-column dedup has a linear fast path for already-sorted
     int columns and a hashtable path otherwise — same result required *)
  let dedup l =
    let col = D.Column.make_ints (List.length l) in
    List.iteri (fun i v -> col.{i} <- v) l;
    let b = D.Batch.make ~nrows:(List.length l) [| D.Column.Ints col |] in
    let c = D.Batch.sort_dedup b in
    List.init (D.Batch.nrows c) (fun i ->
        match (D.Batch.tuple_at c i).(0) with V.Int v -> v | _ -> assert false)
  in
  let sorted_dups = [ 1; 1; 2; 4; 4; 4; 9 ] in
  let shuffled = [ 4; 1; 9; 4; 2; 1; 4 ] in
  Alcotest.(check (list int)) "sorted input, linear path" [ 1; 2; 4; 9 ]
    (dedup sorted_dups);
  Alcotest.(check (list int)) "unsorted input, hashtable path" [ 1; 2; 4; 9 ]
    (dedup shuffled);
  Alcotest.(check (list int)) "already distinct" [ 3; 5; 8 ] (dedup [ 3; 5; 8 ]);
  Alcotest.(check (list int)) "singleton" [ 7 ] (dedup [ 7 ]);
  Alcotest.(check (list int)) "empty" [] (dedup [])

(* The radix canonicalization against the comparison sort and against
   the sorted tuple set, row for row. *)
let test_radix_sort_dedup () =
  let st = Random.State.make [| 61 |] in
  let check what ~radix (tups : D.Tuple.t array) arity =
    let b = D.Batch.of_tuples ~arity tups in
    Alcotest.(check bool) (what ^ ": radix path") radix (D.Batch.radix_eligible b);
    let rows b = Array.to_list (D.Batch.to_tuples b) in
    let expected = List.sort_uniq D.Tuple.compare (Array.to_list tups) in
    let got = rows (D.Batch.sort_dedup b) in
    let cmp = rows (D.Batch.sort_dedup_compare b) in
    let same a b = List.length a = List.length b && List.for_all2 (fun x y -> D.Tuple.compare x y = 0) a b in
    if not (same got expected && same cmp expected) then
      Alcotest.failf "%s: sort_dedup differs from the sorted tuple set" what
  in
  let int_in lo hi = V.Int (lo + Random.State.int st (hi - lo + 1)) in
  let str () = V.String (List.nth [ "a"; "b"; "red"; "O'Brien"; "zz"; "" ] (Random.State.int st 6)) in
  let bool () = V.Bool (Random.State.bool st) in
  let batch n gens = Array.init n (fun _ -> Array.map (fun g -> g ()) gens) in
  for round = 1 to 20 do
    let n = Random.State.int st 3000 in
    let w = Printf.sprintf "round %d, %d rows" round n in
    (* negative ints, few distinct values: heavy duplication *)
    check (w ^ ", ints") ~radix:(n > 0)
      (batch n [| (fun () -> int_in (-5) 5); (fun () -> int_in (-1000) 1000) |]) 2;
    check (w ^ ", codes/bools/ints") ~radix:(n > 0)
      (batch n [| str; bool; (fun () -> int_in (-3) 40) |]) 3;
    (* ranges that pass 62 packed bits fall back to the comparison sort *)
    check (w ^ ", wide ints") ~radix:false
      (batch (max n 2) [| (fun () -> if Random.State.bool st then V.Int min_int else V.Int max_int);
                          (fun () -> int_in 0 3) |]) 2;
    check (w ^ ", 3 x 31 bits") ~radix:false
      (batch (max n 2) [| (fun () -> V.Int (Random.State.bits st)); (fun () -> V.Int (Random.State.bits st));
                          (fun () -> V.Int (Random.State.bits st)) |]) 3;
    (* floats and mixed kinds: no radix *)
    check (w ^ ", floats") ~radix:false
      (batch n [| (fun () -> V.Float (float_of_int (Random.State.int st 4))); (fun () -> int_in 0 3) |]) 2;
    check (w ^ ", mixed") ~radix:false
      (batch n [| (fun () -> if Random.State.bool st then int_in 0 3 else str ()); bool |]) 2
  done;
  List.iter
    (fun rows ->
      check (Printf.sprintf "%d rows" (List.length rows)) ~radix:(rows <> [])
        (Array.of_list (List.map Array.of_list rows)) 2)
    [ []; [ [ V.Int 5; V.Int (-1) ] ]; [ [ V.Int 5; V.Int (-1) ]; [ V.Int (-5); V.Int 1 ] ];
      [ [ V.Int 2; V.Int 2 ]; [ V.Int 2; V.Int 2 ] ] ];
  (* nullary batches keep at most the empty tuple *)
  List.iter
    (fun n ->
      Alcotest.(check int) (Printf.sprintf "nullary, %d rows" n) (min n 1)
        (D.Batch.nrows (D.Batch.sort_dedup (D.Batch.make ~nrows:n [||]))))
    [ 0; 1; 5 ]

let test_tuples_array_memoized () =
  let r = D.Sample_db.sailors in
  Alcotest.(check bool) "same physical array" true
    (D.Relation.tuples_array r == D.Relation.tuples_array r);
  (* and on a columnar-born relation too *)
  let rc =
    D.Relation.of_batch (D.Relation.schema r)
      (D.Relation.batch r)
  in
  Alcotest.(check bool) "columnar-born memoized" true
    (D.Relation.tuples_array rc == D.Relation.tuples_array rc)

let test_stats_columnar_fast_path () =
  (* row-born and columnar-born views of the same rows must report the
     same statistics; the columnar side reads them off the columns *)
  List.iter
    (fun (_, r) ->
      let rc = D.Relation.of_batch (D.Relation.schema r) (D.Relation.batch r) in
      let s = D.Relation.stats r and sc = D.Relation.stats rc in
      Alcotest.(check int) "rows" s.D.Stats.rows sc.D.Stats.rows;
      Alcotest.(check (array int)) "distinct" s.D.Stats.distinct
        sc.D.Stats.distinct)
    (D.Database.relations db)

(* Late materialization: project-after-join drops columns without
   decoding them ([Batch.columns] is zero-copy); the result must still
   match the naive evaluator. *)
let test_late_materialization_project_after_join () =
  let parse = Diagres_ra.Parser.parse in
  let queries =
    [ "project[sname](Sailor join Reserves)";
      "project[bid](select[rating > 7](Sailor join Reserves))";
      "project[color](Boat join Reserves)" ]
  in
  List.iter
    (fun q ->
      let e = parse q in
      let naive = Diagres_ra.Eval.eval db e in
      List.iter
        (fun domains ->
          forcing domains (fun () ->
              Testutil.check_same_rows
                (Printf.sprintf "%s at %d domains" q domains)
                naive
                (Plan.run (Planner.plan db e))))
        [ 1; 4 ])
    queries

(* ------------------------------------------------------------------ *)
(* Vectorized division.                                                *)

let test_division_vec () =
  let parse = Diagres_ra.Parser.parse in
  let queries =
    [ (* Q3 of the tutorial: sailors who reserved all red boats *)
      "project[sid, bid](Reserves) div project[bid](select[color = 'red'](Boat))";
      "project[sid, bid](Reserves) div project[bid](Boat)";
      (* the classic caveat: an empty divisor keeps every candidate *)
      "project[sid, bid](Reserves) div project[bid](select[bid < 0](Boat))";
      (* multi-column keep *)
      "Reserves div project[day](Reserves)" ]
  in
  List.iter
    (fun q ->
      let e = parse q in
      let naive = Diagres_ra.Eval.eval db e in
      List.iter
        (fun columnar ->
          forcing ~columnar 1 (fun () ->
              Testutil.check_same_rows
                (Printf.sprintf "%s columnar=%b" q columnar)
                naive
                (Plan.run (Planner.plan db e))))
        [ true; false ])
    queries

(* ------------------------------------------------------------------ *)
(* Telemetry wiring.                                                   *)

let test_counters () =
  let batches0 = T.counter_named "columnar.batches"
  and rows0 = T.counter_named "columnar.rows" in
  forcing 1 (fun () ->
      let e = Diagres_ra.Parser.parse "select[rating = 10](Sailor)" in
      ignore (Plan.run (Planner.plan db e) : D.Relation.t));
  Alcotest.(check bool) "batches counted" true
    (T.counter_named "columnar.batches" > batches0);
  Alcotest.(check bool) "rows counted" true
    (T.counter_named "columnar.rows" > rows0);
  (* a nested-loop join over columnar inputs is a counted row-mode
     fallback *)
  let fb0 = T.counter_named "columnar.fallback_row_mode" in
  forcing 1 (fun () ->
      let e =
        Diagres_ra.Parser.parse
          "select[rating > 7](Sailor) * select[bid >= 0](Boat)"
      in
      ignore (Plan.run (Planner.plan db e) : D.Relation.t));
  Alcotest.(check bool) "fallback counted" true
    (T.counter_named "columnar.fallback_row_mode" > fb0);
  (* division is vectorized now: no fallback on the bench-suite shapes *)
  let fb1 = T.counter_named "columnar.fallback_row_mode" in
  forcing 1 (fun () ->
      let e =
        Diagres_ra.Parser.parse
          "project[sid, bid](Reserves) div project[bid](Boat)"
      in
      ignore (Plan.run (Planner.plan db e) : D.Relation.t));
  Alcotest.(check int) "division does not fall back" fb1
    (T.counter_named "columnar.fallback_row_mode")

(* A vectorized join with an empty input answers empty without touching
   key columns — an empty batch's columns carry no kind, so asking for a
   code view there would send every such join to the row fallback. *)
let test_empty_side_join () =
  List.iter
    (fun src ->
      let e = Diagres_ra.Parser.parse src in
      let fb0 = T.counter_named "columnar.fallback_row_mode" in
      List.iter
        (fun domains ->
          forcing domains (fun () ->
              Testutil.check_same_rows src (Diagres_ra.Eval.eval db e)
                (Plan.run (Planner.plan db e))))
        [ 1; 4 ];
      Alcotest.(check int)
        (src ^ ": no row-mode fallback")
        fb0
        (T.counter_named "columnar.fallback_row_mode"))
    [ "select[rating > 100](Sailor) join Reserves";
      "Sailor join select[bid < 0](Reserves)";
      "project[sname](select[rating > 100](Sailor) join select[bid < 0](Reserves))"
    ]

(* Observing the engine must not change what runs: the same plans, run
   untraced and then traced, return the same rows and count the same
   vectorized work.  The pipelines are planned unoptimized (the
   optimizer would merge adjacent selections), at 1 and 4 domains. *)
let test_tracing_leaves_execution () =
  let tdb =
    D.Generator.sailors_db ~n_sailors:1000 ~n_boats:100 ~n_reserves:2000 1
  in
  let queries =
    [ "select[rating > 3](select[age > 30.0](Sailor))";
      "select[sid > 10](select[rating > 3](select[age > 30.0](Sailor)))";
      "project[sid, rating](select[rating > 5](Sailor))";
      "project[sname](select[rating > 7](Sailor) join select[sid <= \
       500](Reserves))";
      "select[rating > 5](project[sid, rating](select[age > 30.0](Sailor)))" ]
  in
  let counters =
    [ "columnar.batches"; "columnar.rows"; "columnar.fallback_row_mode" ]
  in
  let measured plan =
    let before = List.map T.counter_named counters in
    let r = Plan.run plan in
    (r, List.map2 (fun c b -> T.counter_named c - b) counters before)
  in
  let old_size = Pool.size () in
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      Pool.set_size old_size)
    (fun () ->
      List.iter
        (fun domains ->
          Pool.set_size domains;
          List.iter
            (fun src ->
              let plan =
                Planner.plan ~optimize:false tdb (Diagres_ra.Parser.parse src)
              in
              ignore (Plan.run plan : D.Relation.t);
              let r_off, d_off = measured plan in
              T.set_enabled true;
              T.reset_spans ();
              let r_on, d_on = measured plan in
              T.set_enabled false;
              let what = Printf.sprintf "%s at %d domains" src domains in
              Testutil.check_same_rows what r_off r_on;
              List.iter2
                (fun c (off, on) ->
                  Alcotest.(check int) (Printf.sprintf "%s: %s" what c) off on)
                counters (List.combine d_off d_on))
            queries)
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* The 500-query differential: columnar ≡ row ≡ naive at 1 and 4      *)
(* domains, with forced-small batches.                                 *)

let fuzz_n =
  match Sys.getenv_opt "DIAGRES_FUZZ_N" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 500)
  | None -> 500

let test_differential () =
  let st = Random.State.make [| 0xc01; 2026 |] in
  for i = 1 to fuzz_n do
    let e = Q.gen_ra st schemas 3 in
    let naive = Diagres_ra.Eval.eval db e in
    List.iter
      (fun domains ->
        let run ~columnar =
          forcing ~columnar domains (fun () -> Plan.run (Planner.plan db e))
        in
        let columnar = run ~columnar:true and row = run ~columnar:false in
        if not (D.Relation.same_rows naive columnar) then
          Alcotest.failf "#%d at %d domains: columnar diverges from naive:\n%s"
            i domains (Diagres_ra.Pretty.ascii e);
        if not (D.Relation.same_rows naive row) then
          Alcotest.failf "#%d at %d domains: row mode diverges from naive:\n%s"
            i domains (Diagres_ra.Pretty.ascii e))
      [ 1; 4 ]
  done

(* The row leg of the differentials: a plan built at
   [vec_threshold = max_int] has no vectorized node, so every operator runs
   the row kernels; the columnar leg's plan of the same query has some. *)
let test_row_leg_has_no_vec_node () =
  let vec_nodes plan =
    Plan.fold_unique (fun n k -> if n.Plan.vec then k + 1 else k) plan 0
  in
  let st = Random.State.make [| 0x7e0; 24 |] in
  let queries =
    List.map Diagres.Catalog.parsed_ra Diagres.Catalog.all
    @ List.init 50 (fun _ -> Q.gen_ra st schemas 3)
  in
  List.iter
    (fun e ->
      let what = Diagres_ra.Pretty.ascii e in
      let row = forcing ~columnar:false 1 (fun () -> Planner.plan db e) in
      Alcotest.(check int) ("row plan: " ^ what) 0 (vec_nodes row))
    queries;
  List.iter
    (fun entry ->
      let e = Diagres.Catalog.parsed_ra entry in
      let col = forcing 1 (fun () -> Planner.plan db e) in
      Alcotest.(check bool)
        ("columnar plan vectorizes " ^ entry.Diagres.Catalog.id)
        true
        (vec_nodes col > 0))
    Diagres.Catalog.all

(* QCheck variant over Testutil's generator: different query shapes
   (products with renamed-apart sides, disjunctions), with shrinking. *)
let prop_columnar_matches_row =
  QCheck.Test.make ~name:"qcheck: columnar = row = naive" ~count:120
    (Testutil.arbitrary_ra ())
    (fun e ->
      let naive = Diagres_ra.Eval.eval db e in
      List.for_all
        (fun domains ->
          let run ~columnar =
            forcing ~columnar domains (fun () -> Plan.run (Planner.plan db e))
          in
          D.Relation.same_rows naive (run ~columnar:true)
          && D.Relation.same_rows naive (run ~columnar:false))
        [ 1; 4 ])

let () =
  Alcotest.run "columnar"
    [ ( "columns",
        [ Alcotest.test_case "dictionary roundtrip" `Quick test_dict_roundtrip;
          Alcotest.test_case "ordered string consts" `Quick
            test_dict_ordered_const ] );
      ( "kernels",
        [ Alcotest.test_case "int kernels = row semantics" `Quick
            test_int_kernel_vs_rows;
          Alcotest.test_case "float kernels (nan) = row semantics" `Quick
            test_float_kernel_vs_rows;
          Alcotest.test_case "col-col kernels = row semantics" `Quick
            test_cols_kernel_vs_rows;
          Alcotest.test_case "wand/wor/wnot" `Quick test_word_combiners;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "selection edges" `Quick test_selection_edges;
          Alcotest.test_case "scratch pool" `Quick test_scratch_pool;
          Alcotest.test_case "full/empty filters" `Quick
            test_filter_full_empty_via_plan ] );
      ( "relations",
        [ Alcotest.test_case "of_batch canonicalizes" `Quick
            test_of_batch_canonicalizes;
          Alcotest.test_case "radix sort_dedup = comparison sort" `Quick
            test_radix_sort_dedup;
          Alcotest.test_case "distinct_sorted paths" `Quick
            test_distinct_sorted_paths;
          Alcotest.test_case "tuples_array memoized" `Quick
            test_tuples_array_memoized;
          Alcotest.test_case "stats fast path" `Quick
            test_stats_columnar_fast_path;
          Alcotest.test_case "late materialization" `Quick
            test_late_materialization_project_after_join ] );
      ( "division",
        [ Alcotest.test_case "sorted-group merge = naive" `Quick
            test_division_vec ] );
      ( "telemetry",
        [ Alcotest.test_case "columnar counters" `Quick test_counters;
          Alcotest.test_case "empty-side join" `Quick test_empty_side_join;
          Alcotest.test_case "tracing leaves execution as is" `Quick
            test_tracing_leaves_execution ] );
      ( "differential",
        [ Alcotest.test_case "qgen: columnar = row = naive" `Slow
            test_differential;
          Testutil.qtest prop_columnar_matches_row;
          Alcotest.test_case "row leg plans no vectorized node" `Quick
            test_row_leg_has_no_vec_node ] ) ]
