(* The telemetry subsystem: span nesting and parenting, disabled-mode
   no-op invariants, counter/histogram correctness, the differential
   check that instrumentation never changes results (sequential and
   parallel) nor any count in a run profile, the EXPLAIN ANALYZE
   annotations, and the Chrome trace-event JSON sink (validated with a
   local mini JSON parser — the tree has no JSON dependency). *)

module T = Diagres_telemetry.Telemetry
module Pool = Diagres_pool.Pool
module D = Diagres_data

let db = D.Sample_db.db

let with_size n f =
  let old = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size old) f

(* Every test leaves tracing off so suites that run after this one see
   the default (disabled) state. *)
let with_tracing f =
  T.set_enabled true;
  T.reset_spans ();
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

(* ---------------- disabled mode ---------------- *)

let test_disabled_noop () =
  T.set_enabled false;
  T.reset_spans ();
  let s = T.start ~cat:"phase" "off" in
  Alcotest.(check bool) "start returns the null span" true (s = T.null_span);
  T.finish ~attrs:[ ("k", T.Int 1) ] s;
  let r = T.with_span "off2" (fun () -> 42) in
  Alcotest.(check int) "with_span still runs f" 42 r;
  Alcotest.(check int) "no spans recorded" 0 (List.length (T.spans ()))

let test_disabled_counters_still_count () =
  T.set_enabled false;
  let c = T.counter "test.disabled.counter" in
  T.set_counter c 0;
  T.incr c;
  T.add c 4;
  Alcotest.(check int) "counters are always on" 5 (T.counter_value c)

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let v =
    T.with_span ~cat:"a" "outer" (fun () ->
        T.with_span ~cat:"b"
          ~attrs:(fun () -> [ ("rows", T.Int 7) ])
          "inner"
          (fun () -> 10)
        + 1)
  in
  Alcotest.(check int) "value threaded" 11 v;
  match T.spans () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer name" "outer" outer.T.name;
    Alcotest.(check string) "inner name" "inner" inner.T.name;
    Alcotest.(check int) "outer is a root" 0 outer.T.parent;
    Alcotest.(check int) "inner's parent is outer" outer.T.sid inner.T.parent;
    Alcotest.(check bool) "inner starts after outer" true
      (inner.T.start_ns >= outer.T.start_ns);
    Alcotest.(check bool) "inner nests inside outer" true
      (Int64.add inner.T.start_ns inner.T.dur_ns
       <= Int64.add outer.T.start_ns outer.T.dur_ns);
    Alcotest.(check bool) "durations non-negative" true
      (outer.T.dur_ns >= 0L && inner.T.dur_ns >= 0L);
    Alcotest.(check bool) "finish attrs recorded" true
      (List.mem_assoc "rows" inner.T.attrs)
  | l -> Alcotest.failf "expected exactly 2 spans, got %d" (List.length l)

let test_span_siblings () =
  with_tracing @@ fun () ->
  T.with_span "parent" (fun () ->
      T.with_span "c1" (fun () -> ());
      T.with_span "c2" (fun () -> ()));
  match T.spans () with
  | [ p; c1; c2 ] ->
    Alcotest.(check string) "first child" "c1" c1.T.name;
    Alcotest.(check string) "second child" "c2" c2.T.name;
    Alcotest.(check int) "c1 parent" p.T.sid c1.T.parent;
    Alcotest.(check int) "c2 parent (stack popped between)" p.T.sid
      c2.T.parent
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

exception Boom

let test_span_exception () =
  with_tracing @@ fun () ->
  (match T.with_span "explodes" (fun () -> raise Boom) with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  match T.spans () with
  | [ s ] ->
    Alcotest.(check bool) "exception attr recorded" true
      (List.mem_assoc "exception" s.T.attrs);
    (* the stack was unwound: a new span is again a root *)
    T.with_span "after" (fun () -> ());
    let after = List.nth (T.spans ()) 1 in
    Alcotest.(check int) "stack unwound after raise" 0 after.T.parent
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_open_span_omitted () =
  with_tracing @@ fun () ->
  let s = T.start "never-finished" in
  T.with_span "done" (fun () -> ());
  Alcotest.(check (list string))
    "only completed spans are visible" [ "done" ]
    (List.map (fun i -> i.T.name) (T.spans ()));
  T.finish s

let test_total_ns () =
  with_tracing @@ fun () ->
  T.with_span "phase-x" (fun () -> ());
  T.with_span "phase-x" (fun () -> ());
  T.with_span "phase-y" (fun () -> ());
  Alcotest.(check bool) "total over both instances" true
    (T.total_ns ~name:"phase-x" () >= 0L);
  Alcotest.(check int64) "unknown name sums to zero" 0L
    (T.total_ns ~name:"no-such-phase" ())

(* ---------------- counters & histograms ---------------- *)

let test_counter_interning () =
  let a = T.counter "test.interned" and b = T.counter "test.interned" in
  T.set_counter a 0;
  T.incr a;
  T.incr b;
  Alcotest.(check int) "same slot" 2 (T.counter_value a);
  Alcotest.(check int) "named lookup" 2 (T.counter_named "test.interned");
  Alcotest.(check int) "unknown counter reads 0" 0
    (T.counter_named "test.never-created")

let test_counter_concurrent () =
  let c = T.counter "test.concurrent" in
  T.set_counter c 0;
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> for _ = 1 to 10_000 do T.incr c done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" 40_000 (T.counter_value c)

let test_histogram () =
  let h = T.histogram "test.hist" in
  T.reset_metrics ();
  let empty = T.snapshot h in
  Alcotest.(check int) "empty count" 0 empty.T.count;
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan empty.T.mean);
  List.iter (T.observe h) [ 1.0; 1.5; 3.0; 100.0 ];
  let s = T.snapshot h in
  Alcotest.(check int) "count" 4 s.T.count;
  Alcotest.(check (float 1e-9)) "sum" 105.5 s.T.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.T.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.T.max;
  Alcotest.(check (float 1e-9)) "mean" (105.5 /. 4.) s.T.mean;
  (* geometric buckets: bucket i counts (2^(i-1), 2^i]; bucket 0 is x<=1 *)
  Alcotest.(check int) "1.0 -> bucket 0" 1 s.T.bucket_counts.(0);
  Alcotest.(check int) "1.5 -> bucket 1 (1,2]" 1 s.T.bucket_counts.(1);
  Alcotest.(check int) "3.0 -> bucket 2 (2,4]" 1 s.T.bucket_counts.(2);
  Alcotest.(check int) "100 -> bucket 7 (64,128]" 1 s.T.bucket_counts.(7)

let test_metrics_registry () =
  T.reset_metrics ();
  T.incr (T.counter "test.reg.a");
  T.observe (T.histogram "test.reg.h") 5.0;
  let names = List.map T.metric_name (T.metrics ()) in
  Alcotest.(check bool) "counter listed" true (List.mem "test.reg.a" names);
  Alcotest.(check bool) "histogram listed" true (List.mem "test.reg.h" names);
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names)
    names;
  T.reset_metrics ();
  Alcotest.(check int) "reset zeroes counters" 0
    (T.counter_named "test.reg.a");
  Alcotest.(check int) "reset zeroes histograms" 0
    (T.snapshot (T.histogram "test.reg.h")).T.count

(* ---------------- gauges & memory accounting ---------------- *)

let test_gauges () =
  let g = T.gauge "test.gauge.a" in
  T.set_gauge g 42;
  Alcotest.(check int) "set" 42 (T.gauge_value g);
  T.add_gauge g 8;
  Alcotest.(check int) "add" 50 (T.gauge_value g);
  T.add_gauge g (-20);
  Alcotest.(check int) "add negative" 30 (T.gauge_value g);
  Alcotest.(check int) "named lookup" 30 (T.gauge_named "test.gauge.a");
  Alcotest.(check int) "unknown gauge reads 0" 0
    (T.gauge_named "test.gauge.nosuch");
  Alcotest.(check bool) "same name interns to the same cell" true
    (T.gauge "test.gauge.a" == g);
  let names = List.map T.metric_name (T.metrics ()) in
  Alcotest.(check bool) "registry snapshot lists the gauge" true
    (List.mem "test.gauge.a" names);
  T.reset_metrics ();
  Alcotest.(check int) "reset zeroes gauges" 0 (T.gauge_value g)

let test_memory_bytes () =
  (* values: fixed 16-byte boxes; strings add header + payload words *)
  Alcotest.(check int) "null" 0 (D.Value.memory_bytes D.Value.Null);
  Alcotest.(check int) "int" 16 (D.Value.memory_bytes (D.Value.Int 7));
  Alcotest.(check int) "8-char string" 40
    (D.Value.memory_bytes (D.Value.String "ABCDEFGH"));
  (* tuple: header word + one slot per field, plus the boxed values *)
  Alcotest.(check int) "2-int tuple" 56
    (D.Tuple.memory_bytes [| D.Value.Int 1; D.Value.Int 2 |]);
  (* an int column is exactly its Bigarray payload *)
  let ints = D.Column.Ints (D.Column.make_ints 100) in
  Alcotest.(check int) "int column payload" 800 (D.Column.memory_bytes ints);
  (* a dictionary column is its codes payload plus dictionary storage *)
  let dict =
    D.Column.of_values
      (Array.init 10 (fun i ->
           D.Value.String (if i mod 2 = 0 then "even" else "odd")))
  in
  Alcotest.(check bool) "dict column exceeds its codes payload" true
    (D.Column.memory_bytes dict > 80);
  (* batch: a header word plus its columns *)
  let b = D.Batch.make ~nrows:100 [| ints |] in
  Alcotest.(check int) "batch = header + columns" 808 (D.Batch.memory_bytes b);
  (* relation: at least the boxed-tuple payload, growing with cardinality,
     and the cache accounting tracks what has actually been built *)
  let schema =
    [ D.Schema.attr ~ty:D.Value.Tint "a"; D.Schema.attr ~ty:D.Value.Tint "b" ]
  in
  let rel n =
    D.Relation.of_lists schema
      (List.init n (fun i -> [ D.Value.Int i; D.Value.Int (i * i) ]))
  in
  let small = rel 10 and big = rel 1000 in
  Alcotest.(check bool) "footprint covers the tuple payload" true
    (D.Relation.memory_bytes big >= 1000 * 56);
  Alcotest.(check bool) "footprint grows with cardinality" true
    (D.Relation.memory_bytes big > D.Relation.memory_bytes small);
  Alcotest.(check (pair int int)) "no caches built yet" (0, 0)
    (D.Relation.caches_memory_bytes small);
  ignore (D.Relation.stats small);
  let _, st = D.Relation.caches_memory_bytes small in
  Alcotest.(check bool) "stats cache counted once filled" true (st > 0);
  ignore (D.Relation.matching small [ 0 ] [| D.Value.Int 3 |]);
  let ix, _ = D.Relation.caches_memory_bytes small in
  Alcotest.(check bool) "index cache counted once built" true (ix > 0)

(* ---------------- per-span allocation tracking ---------------- *)

let test_alloc_spans () =
  with_tracing @@ fun () ->
  (* without the opt-in, spans carry no GC samples *)
  ignore
    (T.with_span "noalloc" (fun () ->
         Sys.opaque_identity (Array.make 1000 0.)));
  (match T.spans () with
  | [ s ] ->
    Alcotest.(check bool) "alloc is None without opt-in" true (s.T.alloc = None)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  T.reset_spans ();
  T.set_alloc_enabled true;
  Fun.protect ~finally:(fun () -> T.set_alloc_enabled false) @@ fun () ->
  ignore
    (T.with_span "alloc" (fun () ->
         Sys.opaque_identity (Array.init 100_000 float_of_int)));
  match T.spans () with
  | [ s ] -> (
    match s.T.alloc with
    | Some d ->
      (* the flat float array alone is 800 KB *)
      Alcotest.(check bool) "allocation attributed to the span" true
        (d.T.alloc_bytes >= 800_000.);
      Alcotest.(check bool) "GC deltas non-negative" true
        (d.T.minor_collections >= 0 && d.T.major_collections >= 0
        && d.T.promoted_words >= 0.)
    | None -> Alcotest.fail "alloc tracking on but the span has no delta")
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_disabled_no_alloc () =
  T.set_enabled false;
  (* warm up: intern anything start/finish touch lazily *)
  let s0 = T.start "warm" in
  T.finish s0;
  let before = Gc.allocated_bytes () in
  for _ = 1 to 10_000 do
    let s = T.start "off" in
    T.finish s
  done;
  let after = Gc.allocated_bytes () in
  (* the disabled path is one Atomic.get per call: the whole loop must
     allocate nothing.  The slack covers the boxed floats of the two
     Gc.allocated_bytes calls themselves. *)
  Alcotest.(check bool) "disabled start/finish allocates nothing" true
    (after -. before < 1024.)

let test_plan_cache_counters () =
  Diagres_ra.Plan_cache.clear ();
  Diagres_ra.Plan_cache.reset_stats ();
  let ra = Diagres.Catalog.parsed_ra (Diagres.Catalog.find "q1") in
  ignore (Diagres_ra.Eval.eval_planned db ra);
  ignore (Diagres_ra.Eval.eval_planned db ra);
  Alcotest.(check int) "one miss on the telemetry registry" 1
    (T.counter_named "plan_cache.miss");
  Alcotest.(check int) "one hit on the telemetry registry" 1
    (T.counter_named "plan_cache.hit");
  Alcotest.(check (pair int int)) "Plan_cache.stats reads the same slots"
    (1, 1)
    (Diagres_ra.Plan_cache.stats ())

(* ---------------- differential: instrumented = uninstrumented -------- *)

(* A database big enough that operators cross the vectorized and
   parallel thresholds, so the traced run exercises the columnar kernels
   and the pooled nested-loop join too. *)
let big_db =
  D.Generator.sailors_db ~n_sailors:1500 ~n_boats:150 ~n_reserves:3000 1507

let differential_queries () =
  List.map
    (fun e -> (e.Diagres.Catalog.id, Diagres.Catalog.parsed_ra e))
    Diagres.Catalog.all
  @ [ ( "theta",
        Diagres_ra.Parser.parse
          "project[sid2](select[sid = sid2 and rating = 10](Sailor * \
           rename[sid -> sid2, bid -> bid2, day -> day2](Reserves)))" ) ]

let test_differential () =
  List.iter
    (fun size ->
      with_size size (fun () ->
          List.iter
            (fun (id, ra) ->
              List.iter
                (fun (dbname, dbi) ->
                  T.set_enabled false;
                  let plain =
                    D.Relation.to_string (Diagres_ra.Eval.eval_planned dbi ra)
                  in
                  let traced =
                    with_tracing (fun () ->
                        D.Relation.to_string
                          (Diagres_ra.Eval.eval_planned dbi ra))
                  in
                  (* and again with per-span allocation tracking on: the
                     GC sampling must never change results either *)
                  let traced_alloc =
                    with_tracing (fun () ->
                        T.set_alloc_enabled true;
                        Fun.protect
                          ~finally:(fun () -> T.set_alloc_enabled false)
                          (fun () ->
                            D.Relation.to_string
                              (Diagres_ra.Eval.eval_planned dbi ra)))
                  in
                  Alcotest.(check string)
                    (Printf.sprintf "%s on %s, %d domain(s)" id dbname size)
                    plain traced;
                  Alcotest.(check string)
                    (Printf.sprintf "%s on %s, %d domain(s), alloc tracking"
                       id dbname size)
                    plain traced_alloc)
                [ ("sample", db); ("generated-1500", big_db) ])
            (differential_queries ())))
    [ 1; 4 ]

(* ---------------- EXPLAIN ANALYZE ---------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let strip_annotation line =
  match String.index_opt line '(' with
  | Some i when i > 1 && line.[i - 1] = ' ' && String.length line > i + 4
                && String.sub line (i + 1) 4 = "est="
    -> String.trim (String.sub line 0 i)
  | _ -> String.trim line

let lines s = String.split_on_char '\n' (String.trim s)

let test_analyze_annotations () =
  with_tracing @@ fun () ->
  List.iter
    (fun e ->
      let ra = Diagres.Catalog.parsed_ra e in
      let plan = Diagres_ra.Planner.plan db ra in
      let result, prof = Diagres_ra.Plan.run_profiled plan in
      let analyzed = Diagres_ra.Plan.analyze prof plan in
      (* same tree as explain, one annotation per node *)
      Alcotest.(check (list string))
        (e.Diagres.Catalog.id ^ ": analyze shows the explain tree")
        (List.map strip_annotation
           (lines (Diagres_ra.Plan.explain prof plan)))
        (List.map strip_annotation (lines analyzed));
      List.iter
        (fun l ->
          (* shared-node back-references render without an annotation *)
          if not (contains l "(shared, computed once)") then begin
            Alcotest.(check bool)
              (e.Diagres.Catalog.id ^ ": node annotated: " ^ l)
              true
              (contains l "est=" && contains l "actual="
              && contains l "time=");
            (* every operator executed, so no unknown actuals/times *)
            Alcotest.(check bool) ("no unexecuted nodes: " ^ l) false
              (contains l "=?")
          end)
        (lines analyzed);
      (* the root's actual row count is the query's answer size *)
      let root = List.hd (lines analyzed) in
      let expect =
        Printf.sprintf "actual=%d" (D.Relation.cardinality result)
      in
      Alcotest.(check bool)
        (e.Diagres.Catalog.id ^ ": root " ^ expect)
        true (contains root expect))
    Diagres.Catalog.all

let test_analyze_est_off_flag () =
  (* est_ratio is symmetric and clamped: only >10x discrepancies flag *)
  Alcotest.(check bool) "10x is not flagged" false
    (Diagres_ra.Plan.est_off ~est:10.0 ~actual:1);
  Alcotest.(check bool) "11x over flags" true
    (Diagres_ra.Plan.est_off ~est:110.0 ~actual:10);
  Alcotest.(check bool) "11x under flags" true
    (Diagres_ra.Plan.est_off ~est:10.0 ~actual:110);
  Alcotest.(check bool) "empty estimate vs empty actual" false
    (Diagres_ra.Plan.est_off ~est:0.0 ~actual:0)

(* ---------------- trace JSON ---------------- *)

(* A mini JSON parser, just enough to validate the trace sink (the tree
   deliberately has no JSON dependency). *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> raise (Bad "unterminated string")
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then raise (Bad "bad \\u escape");
            Buffer.add_string b
              (Printf.sprintf "\\u%s" (String.sub s !pos 4));
            pos := !pos + 4
          | Some c -> Buffer.add_char b c; advance ()
          | None -> raise (Bad "dangling escape"));
          go ()
        | Some c -> Buffer.add_char b c; advance (); go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      if !pos = start then raise (Bad "expected number");
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> raise (Bad "malformed number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad "expected , or } in object")
          in
          members []
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> raise (Bad "expected , or ] in array")
          in
          elements []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> pos := !pos + 4; Bool true
      | Some 'f' -> pos := !pos + 5; Bool false
      | Some 'n' -> pos := !pos + 4; Null
      | _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let field k = function
    | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Bad ("missing field " ^ k)))
    | _ -> raise (Bad "not an object")

  let str = function Str s -> s | _ -> raise (Bad "not a string")
  let num = function Num f -> f | _ -> raise (Bad "not a number")
end

let test_trace_json_valid () =
  with_tracing @@ fun () ->
  with_size 4 @@ fun () ->
  T.set_alloc_enabled true;
  Fun.protect ~finally:(fun () -> T.set_alloc_enabled false) @@ fun () ->
  (* span a real multi-phase evaluation, plus parallel work *)
  let ra =
    Diagres_rc.Translate.trc_to_ra D.Sample_db.schemas
      (Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q1"))
  in
  ignore (Diagres_ra.Eval.eval_planned big_db ra);
  let trace = T.trace_json () in
  let events =
    match Json.parse trace with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "trace is not a JSON array"
    | exception Json.Bad msg -> Alcotest.failf "invalid trace JSON: %s" msg
  in
  Alcotest.(check bool) "trace is non-empty" true (events <> []);
  (* every event is well-formed, and per-tid B/E sequences are properly
     nested in non-decreasing timestamp order (the Chrome format rule) *)
  let stacks : (int, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add stacks tid r;
      r
  in
  let begins = ref 0 and ends = ref 0 in
  let metadata = ref 0 and counters = ref 0 and thread_names = ref [] in
  List.iter
    (fun ev ->
      let ph = Json.(str (field "ph" ev)) in
      let name = Json.(str (field "name" ev)) in
      Alcotest.(check bool) "pid present" true
        (Json.(num (field "pid" ev)) = 1.0);
      match ph with
      | "M" ->
        (* metadata: no timestamp, just a process/thread label in args *)
        Stdlib.incr metadata;
        Alcotest.(check bool) "metadata names a known field" true
          (name = "process_name" || name = "thread_name");
        let label = Json.(str (field "name" (field "args" ev))) in
        if name = "thread_name" then
          thread_names := label :: !thread_names
        else Alcotest.(check string) "process label" "diagres" label
      | "C" ->
        (* counter track: timestamped value sample, no nesting *)
        Stdlib.incr counters;
        ignore Json.(num (field "tid" ev));
        ignore Json.(num (field "ts" ev));
        ignore Json.(field "args" ev)
      | _ -> (
        let tid = int_of_float Json.(num (field "tid" ev)) in
        let ts = Json.(num (field "ts" ev)) in
        ignore Json.(field "cat" ev);
        ignore Json.(field "args" ev);
        let st = stack tid in
        (match !st with
        | (_, prev_ts) :: _ ->
          Alcotest.(check bool) "per-tid timestamps non-decreasing" true
            (ts >= prev_ts)
        | [] -> ());
        match ph with
        | "B" ->
          Stdlib.incr begins;
          st := (name, ts) :: !st
        | "E" -> (
          Stdlib.incr ends;
          match !st with
          | (open_name, _) :: rest ->
            Alcotest.(check string) "E closes the innermost open B" open_name
              name;
            st := rest
          | [] -> Alcotest.fail "E with no open B on its tid")
        | other -> Alcotest.failf "unexpected event phase %S" other))
    events;
  Alcotest.(check int) "every B has its E" !begins !ends;
  Alcotest.(check bool) "has metadata events" true (!metadata >= 2);
  Alcotest.(check bool) "domain-0 thread name present" true
    (List.mem "domain-0" !thread_names);
  Alcotest.(check bool) "has counter events (alloc tracking was on)" true
    (!counters > 0);
  Hashtbl.iter
    (fun tid st ->
      Alcotest.(check (list string))
        (Printf.sprintf "tid %d ends with an empty stack" tid)
        [] (List.map fst !st))
    stacks;
  (* the expected pipeline phases all appear *)
  let names =
    List.filter_map
      (fun ev ->
        if Json.(str (field "ph" ev)) = "B" then
          Some Json.(str (field "name" ev))
        else None)
      events
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("trace contains phase " ^ phase) true
        (List.mem phase names))
    [ "typecheck"; "plan"; "optimize"; "execute" ]

(* ---------------- run-profile counts vs telemetry ---------------- *)

module Plan = Diagres_ra.Plan

(* Everything a run profile counts, node by node, with the measurements
   that telemetry alone takes (time, allocation, [*_ns] details) left
   out: which nodes were computed (evals), their rows, memo hits and the
   [vec]/[batches]/[morsels] details. *)
let profile_counts plan (prof : Plan.profile) =
  Plan.fold_unique
    (fun n acc ->
      let counted (e : Plan.node_run) =
        ( D.Relation.cardinality e.Plan.result,
          e.Plan.hits,
          List.filter
            (fun (k, _) -> not (String.ends_with ~suffix:"_ns" k))
            e.Plan.detail )
      in
      (n.Plan.id, Option.map counted (Hashtbl.find_opt prof n.Plan.id))
      :: acc)
    plan []

(* Small thresholds so the Qgen stream reaches the vectorized,
   multi-batch and morsel-parallel paths on the sample database. *)
let with_small_thresholds f =
  let par = !Plan.par_threshold and morsel = !Plan.morsel_size in
  let vec = !Plan.vec_threshold and batch = !Plan.batch_rows in
  Plan.par_threshold := 0;
  Plan.morsel_size := 3;
  Plan.vec_threshold := 0;
  Plan.batch_rows := 3;
  Fun.protect
    ~finally:(fun () ->
      Plan.par_threshold := par;
      Plan.morsel_size := morsel;
      Plan.vec_threshold := vec;
      Plan.batch_rows := batch)
    f

let test_profile_counts_independent () =
  let catalog_db =
    D.Generator.sailors_db ~n_sailors:1000 ~n_boats:100 ~n_reserves:2000 3
  in
  let catalog =
    List.map
      (fun e -> (e.Diagres.Catalog.id, Diagres.Catalog.parsed_ra e))
      Diagres.Catalog.all
  in
  let st = Random.State.make [| 0x9f0; 17 |] in
  let stream =
    List.init 100 (fun i ->
        ( Printf.sprintf "qgen #%d" i,
          Diagres.Qgen.gen_ra st D.Sample_db.schemas 3 ))
  in
  let check_all db queries =
    List.iter
      (fun domains ->
        with_size domains @@ fun () ->
        List.iter
          (fun (name, e) ->
            let plan = Diagres_ra.Planner.plan db e in
            let r_off, p_off = Plan.run_profiled plan in
            let traced ~alloc =
              T.set_enabled true;
              T.set_alloc_enabled alloc;
              T.reset_spans ();
              Fun.protect
                ~finally:(fun () ->
                  T.set_enabled false;
                  T.set_alloc_enabled false)
                (fun () -> Plan.run_profiled plan)
            in
            List.iter
              (fun (mode, (r_on, p_on)) ->
                let what =
                  Printf.sprintf "%s at %d domains, %s" name domains mode
                in
                Testutil.check_same_rows what r_off r_on;
                if profile_counts plan p_off <> profile_counts plan p_on then
                  Alcotest.failf "%s: profile counts differ:\n%s" what
                    (Diagres_ra.Pretty.ascii e))
              [ ("telemetry", traced ~alloc:false);
                ("telemetry+alloc", traced ~alloc:true) ])
          queries)
      [ 1; 4 ]
  in
  check_all catalog_db catalog;
  with_small_thresholds (fun () -> check_all db stream)

let test_metrics_json_valid () =
  T.incr (T.counter "test.json.counter");
  T.observe (T.histogram "test.json.hist") 3.0;
  T.set_gauge (T.gauge "test.json.gauge") 12345;
  match Json.parse (T.metrics_json ()) with
  | Json.Obj _ as o ->
    let counters = Json.field "counters" o in
    let gauges = Json.field "gauges" o in
    let histograms = Json.field "histograms" o in
    Alcotest.(check bool) "counter serialized" true
      (Json.(num (field "test.json.counter" counters)) >= 1.0);
    Alcotest.(check (float 1e-9)) "gauge serialized" 12345.0
      Json.(num (field "test.json.gauge" gauges));
    Alcotest.(check (float 1e-9)) "histogram count serialized" 1.0
      Json.(num (field "count" (field "test.json.hist" histograms)))
  | _ -> Alcotest.fail "metrics_json is not an object"
  | exception Json.Bad msg -> Alcotest.failf "invalid metrics JSON: %s" msg

(* ---------------- pool metrics ---------------- *)

let test_pool_counters () =
  with_size 1 (fun () ->
      let before = T.counter_named "pool.tasks.inline" in
      ignore (Pool.run_all (Array.init 8 (fun i () -> i)));
      Alcotest.(check int) "inline tasks counted" (before + 8)
        (T.counter_named "pool.tasks.inline"));
  with_size 3 (fun () ->
      let q0 = T.counter_named "pool.tasks.queued" in
      let x0 = T.counter_named "pool.tasks.executed" in
      ignore (Pool.run_all (Array.init 16 (fun i () -> i)));
      Alcotest.(check int) "queued tasks counted" (q0 + 16)
        (T.counter_named "pool.tasks.queued");
      Alcotest.(check int) "every queued task executed" (x0 + 16)
        (T.counter_named "pool.tasks.executed"))

let () =
  Alcotest.run "telemetry"
    [
      ( "disabled",
        [ Alcotest.test_case "spans are no-ops" `Quick test_disabled_noop;
          Alcotest.test_case "counters stay live" `Quick
            test_disabled_counters_still_count ] );
      ( "spans",
        [ Alcotest.test_case "nesting & parenting" `Quick test_span_nesting;
          Alcotest.test_case "siblings" `Quick test_span_siblings;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "open spans omitted" `Quick
            test_open_span_omitted;
          Alcotest.test_case "total_ns" `Quick test_total_ns ] );
      ( "metrics",
        [ Alcotest.test_case "counter interning" `Quick
            test_counter_interning;
          Alcotest.test_case "concurrent increments" `Quick
            test_counter_concurrent;
          Alcotest.test_case "histogram buckets" `Quick test_histogram;
          Alcotest.test_case "registry snapshot & reset" `Quick
            test_metrics_registry;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "plan-cache counters" `Quick
            test_plan_cache_counters;
          Alcotest.test_case "pool counters" `Quick test_pool_counters ] );
      ( "memory",
        [ Alcotest.test_case "estimated heap bytes" `Quick test_memory_bytes ]
      );
      ( "alloc",
        [ Alcotest.test_case "per-span allocation deltas" `Quick
            test_alloc_spans;
          Alcotest.test_case "disabled mode allocates nothing" `Quick
            test_disabled_no_alloc ] );
      ( "differential",
        [ Alcotest.test_case "instrumented = uninstrumented" `Slow
            test_differential ] );
      ( "analyze",
        [ Alcotest.test_case "annotations" `Quick test_analyze_annotations;
          Alcotest.test_case "est-off flagging" `Quick
            test_analyze_est_off_flag ] );
      ( "profile",
        [ Alcotest.test_case "counts independent of telemetry" `Quick
            test_profile_counts_independent ] );
      ( "json",
        [ Alcotest.test_case "trace events well-formed" `Quick
            test_trace_json_valid;
          Alcotest.test_case "metrics json well-formed" `Quick
            test_metrics_json_valid ] );
    ]
