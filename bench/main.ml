(* The benchmark harness: one section per experiment in DESIGN.md §5.

   The paper is a tutorial and reports no performance tables; its "results"
   are worked examples and qualitative comparisons.  Accordingly each
   experiment below prints the *shape* result the tutorial's narrative
   claims (who needs how many panels/steps/arrows; which readings agree),
   then measures the toolkit's cost for the corresponding operation with
   Bechamel.  EXPERIMENTS.md records the outcomes. *)

open Bechamel
open Toolkit
module T = Diagres_telemetry.Telemetry

let db = Diagres_data.Sample_db.db

let schemas =
  List.map
    (fun (n, r) -> (n, Diagres_data.Relation.schema r))
    (Diagres_data.Database.relations db)

let hr title =
  Printf.printf "\n================ %s ================\n" title

(* ------------------------------------------------------------------ *)
(* Shape tables (printed before timing).                                *)

let e1_table () =
  hr "E1  five queries x five languages (agreement + answer sizes)";
  Printf.printf "%-4s %-52s %s\n" "id" "description" "rows  agree";
  List.iter
    (fun e ->
      let results = Diagres.Catalog.eval_all db e in
      let _, first = List.hd results in
      let agree =
        List.for_all
          (fun (_, r) -> Diagres_data.Relation.same_rows first r)
          results
      in
      Printf.printf "%-4s %-52s %4d  %b\n" e.Diagres.Catalog.id
        e.Diagres.Catalog.description
        (Diagres_data.Relation.cardinality first)
        agree)
    Diagres.Catalog.all

let e2_table () =
  hr "E2  syllogisms by Venn region algebra";
  let valid =
    List.filter Diagres_diagrams.Syllogism.valid_venn
      Diagres_diagrams.Syllogism.all_moods
  in
  let trad =
    List.filter
      (Diagres_diagrams.Syllogism.valid_venn ~existential_import:true)
      Diagres_diagrams.Syllogism.all_moods
  in
  Printf.printf
    "moods: 256   valid (modern): %d   valid (existential import): %d\n"
    (List.length valid) (List.length trad);
  Printf.printf "expected: 15 and 24 — %s\n"
    (if List.length valid = 15 && List.length trad = 24 then "MATCH"
     else "MISMATCH")

let e4_table () =
  hr "E4  beta graphs <-> Boolean DRC (the imperfect mapping)";
  let sentence =
    Diagres_rc.Drc_parser.parse_formula
      "exists s, b, d (Reserves(s, b, d) & not (exists n, c (Boat(b, n, c) \
       & c = 'red')))"
  in
  let g = Diagres_diagrams.Eg_beta.of_drc sentence in
  let outer = Diagres_diagrams.Eg_beta.to_drc g in
  let inner = Diagres_diagrams.Eg_beta.to_drc_innermost g in
  Printf.printf "crossing ligatures: %d\n"
    (List.length (Diagres_diagrams.Eg_beta.crossing_ligatures g));
  Printf.printf "outermost reading true: %b   innermost reading true: %b\n"
    (Diagres_rc.Drc_to_ra.eval_sentence db outer)
    (Diagres_rc.Drc_to_ra.eval_sentence db inner);
  Printf.printf
    "(differing readings on crossing graphs = the tutorial's Part-4 point)\n"

let e5_table () =
  hr "E5  QBE vs Datalog for division (Q3)";
  let e = Diagres.Catalog.find "q3" in
  let p = Diagres.Catalog.parsed_datalog e in
  let qbe = Diagres_diagrams.Qbe.of_datalog schemas p ~goal:"q3" in
  let steps, temps, rows = Diagres_diagrams.Qbe.stats qbe in
  let rules, occs, repeats = Diagres_datalog.Ast.stats p in
  Printf.printf "QBE:     steps=%d temp-relations=%d skeleton-rows=%d\n" steps
    temps rows;
  Printf.printf "Datalog: rules=%d body-atoms=%d repeated-tables=%d\n" rules
    occs repeats;
  Printf.printf "shape: QBE needs the same dataflow decomposition as Datalog\n"

let e6_table () =
  hr "E6  diagram complexity per formalism (catalog queries)";
  Printf.printf "%-4s %7s %8s %8s %8s %8s\n" "id" "panels" "boxes" "links"
    "cuts" "arrows";
  List.iter
    (fun e ->
      let panels =
        Diagres_rc.Translate.drawable_panels schemas
          [ Diagres.Catalog.parsed_trc e ]
      in
      let rd = Diagres_diagrams.Relational_diagram.of_trc_queries panels in
      let stats = Diagres_diagrams.Relational_diagram.stats rd in
      let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
      let qv_arrows =
        List.fold_left
          (fun a q ->
            a
            + Diagres_diagrams.Queryvis.arrow_count
                (Diagres_diagrams.Queryvis.of_trc q))
          0 panels
      in
      Printf.printf "%-4s %7d %8d %8d %8d %8d\n" e.Diagres.Catalog.id
        (List.length panels)
        (sum (fun s -> s.Diagres_diagrams.Scene.boxes))
        (sum (fun s -> s.Diagres_diagrams.Scene.links))
        (sum (fun s -> s.Diagres_diagrams.Scene.cuts))
        qv_arrows)
    Diagres.Catalog.all;
  Printf.printf
    "(arrows column = QueryVis reading arrows; Relational Diagrams use 0)\n"

(* Nested NOT EXISTS chains of growing depth: how diagram complexity tracks
   query complexity per formalism (the E6 ablation axis). *)
let nesting_table () =
  hr "E6b  diagram size vs nesting depth (alternating NOT EXISTS chain)";
  let rec chain depth =
    (* sailors such that ¬∃r (… ¬∃r' (…)) alternating over Reserves *)
    if depth = 0 then Diagres_rc.Trc.True
    else
      Diagres_rc.Trc.Not
        (Diagres_rc.Trc.Exists
           ( [ (Printf.sprintf "r%d" depth, "Reserves") ],
             Diagres_rc.Trc.And
               ( Diagres_rc.Trc.Cmp
                   ( Diagres_logic.Fol.Eq,
                     Diagres_rc.Trc.Field (Printf.sprintf "r%d" depth, "sid"),
                     Diagres_rc.Trc.Field ("s", "sid") ),
                 chain (depth - 1) ) ))
  in
  Printf.printf "%6s %10s %10s %12s %14s\n" "depth" "RD boxes" "RD cuts"
    "QV arrows" "SQLVis boxes";
  List.iter
    (fun depth ->
      let q =
        { Diagres_rc.Trc.head = [ Diagres_rc.Trc.Field ("s", "sid") ];
          ranges = [ ("s", "Sailor") ];
          body = chain depth }
      in
      let rd = Diagres_diagrams.Relational_diagram.of_trc q in
      let rd_stats = List.hd (Diagres_diagrams.Relational_diagram.stats rd) in
      let qv = Diagres_diagrams.Queryvis.of_trc q in
      let sqlvis =
        Diagres_diagrams.Sqlvis.of_sql
          (Diagres_sql.Of_trc.statement [ q ])
      in
      let sv_stats = Diagres_diagrams.Sqlvis.stats sqlvis in
      Printf.printf "%6d %10d %10d %12d %14d\n" depth
        rd_stats.Diagres_diagrams.Scene.boxes
        rd_stats.Diagres_diagrams.Scene.cuts
        (Diagres_diagrams.Queryvis.arrow_count qv)
        sv_stats.Diagres_diagrams.Scene.boxes)
    [ 1; 2; 3; 4; 5; 6 ];
  Printf.printf
    "(all grow linearly in depth; QueryVis adds one arrow per level, RD one \
     cut)\n"

let e8_table () =
  hr "E8  principles & the three abuses of the line";
  let q3 = Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q3") in
  print_endline
    (Diagres.Principles.verdict_to_string
       (Diagres.Principles.invertibility_rd q3));
  let sentence =
    Diagres_rc.Drc_parser.parse_formula
      "exists s, b, d (Reserves(s, b, d) & s <> b)"
  in
  Printf.printf "beta lines: %s\n"
    (Diagres_diagrams.Line_abuse.report_to_string
       (Diagres_diagrams.Line_abuse.of_beta
          (Diagres_diagrams.Eg_beta.of_drc sentence)));
  let rd = Diagres_diagrams.Relational_diagram.of_trc q3 in
  let scene =
    (List.hd rd.Diagres_diagrams.Relational_diagram.panels)
      .Diagres_diagrams.Relational_diagram.scene
  in
  Printf.printf "RD lines:   %s\n"
    (Diagres_diagrams.Line_abuse.report_to_string
       (Diagres_diagrams.Line_abuse.of_scene scene))

let e10_table () =
  hr "E10  survey capability matrix";
  print_string (Diagres.Survey.to_table ())

(* ------------------------------------------------------------------ *)
(* JSON result sink (--json FILE): a versioned snapshot.  Every
   measurement below lands here as {name, ns_per_run, tuples, rows},
   preceded by the schema version and the run-mode switches (so a
   baseline taken in --quick mode is never silently compared against a
   full run), and followed by a snapshot of the telemetry metrics
   registry (cache hit/miss counters, pool utilization, memory gauges)
   accumulated over the whole run.  Hand-rolled emission — no JSON
   dependency in the tree.                                               *)

(* Bump when the snapshot layout changes incompatibly; --check refuses
   baselines with a different version. *)
let snapshot_schema_version = 1

let results : (string * float * int * int) list ref = ref []

let record ~name ~ns ~tuples ~rows =
  results := (name, ns, tuples, rows) :: !results

let write_json ~quick ~huge ~domains path =
  let rows = List.rev !results in
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "\"schema_version\": %d,\n" snapshot_schema_version;
  Printf.fprintf oc
    "\"mode\": {\"quick\": %b, \"huge\": %b, \"domains\": \"%s\", \
     \"columnar\": %b},\n"
    quick huge
    (String.concat "," (List.map string_of_int domains))
    !Diagres_ra.Plan.columnar_enabled;
  output_string oc "\"measurements\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, ns, tuples, nrows) ->
      Printf.fprintf oc
        "  {\"name\": \"%s\", \"ns_per_run\": %.1f, \"tuples\": %d, \
         \"rows\": %d}%s\n"
        (T.json_escape name) ns tuples nrows
        (if i = last then "" else ","))
    rows;
  output_string oc "],\n\"columnar\": ";
  Printf.fprintf oc
    "{\"enabled\": %b, \"batches\": %d, \"rows\": %d, \
     \"fallback_row_mode\": %d, \"dict_hit\": %d, \"dict_miss\": %d},\n"
    !Diagres_ra.Plan.columnar_enabled
    (T.counter_named "columnar.batches")
    (T.counter_named "columnar.rows")
    (T.counter_named "columnar.fallback_row_mode")
    (T.counter_named "columnar.dict.hit")
    (T.counter_named "columnar.dict.miss");
  output_string oc "\"metrics\": ";
  output_string oc (T.metrics_json ());
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "\nwrote %d measurements to %s\n" (List.length rows) path

(* ------------------------------------------------------------------ *)
(* Perf-regression gate (--check BASELINE [--tolerance PCT]): reads a
   committed snapshot, compares every measurement present in both runs,
   and exits non-zero when the current run is slower than the baseline
   allows.  The comparison is noise-aware: sub-millisecond measurements
   are jitter-dominated on a shared machine and are reported but never
   flagged, and a flagged regression must also exceed an absolute
   1 ms delta so a 30% blow-up of a 2 ms measurement on a busy host does
   not fail the gate on its own ratio.  Minimal recursive-descent JSON
   reader below — the tree carries no JSON dependency. *)

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
            if !pos + 4 > n then raise (Bad "bad unicode escape");
            Buffer.add_string b (String.sub s !pos 4);
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

  let field_opt k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let field k j =
    match field_opt k j with
    | Some v -> v
    | None -> raise (Bad ("missing field " ^ k))

  let num = function Num f -> f | _ -> raise (Bad "not a number")
  let str = function Str s -> s | _ -> raise (Bad "not a string")
end

(* Below this a measurement is jitter, not signal: never flag it. *)
let noise_floor_ns = 1e6

(* And a regression must also be at least this much absolute slowdown. *)
let min_delta_ns = 1e6

(* Exit status: 0 clean, 1 regression found, 2 unusable baseline. *)
let check_baseline ~tolerance path : int =
  let contents =
    try Some (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg ->
      Printf.eprintf "check: cannot read %s: %s\n" path msg;
      None
  in
  match contents with
  | None -> 2
  | Some contents -> (
    match Json.parse contents with
    | exception Json.Bad msg ->
      Printf.eprintf "check: %s is not valid snapshot JSON: %s\n" path msg;
      2
    | j -> (
      match
        Option.map (fun v -> int_of_float (Json.num v))
          (Json.field_opt "schema_version" j)
      with
      | None ->
        Printf.eprintf
          "check: %s has no schema_version (pre-versioning snapshot); \
           regenerate the baseline with --json\n"
          path;
        2
      | Some v when v <> snapshot_schema_version ->
        Printf.eprintf
          "check: %s has schema_version %d, this binary writes %d; \
           regenerate the baseline\n"
          path v snapshot_schema_version;
        2
      | Some _ ->
        (* Mode mismatch is a warning, not an error: CI compares a
           committed --quick baseline against a --quick run, but a
           developer may want to eyeball a full run against it too. *)
        (match Json.field_opt "mode" j with
        | Some m ->
          let flag k =
            match Json.field_opt k m with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          let here_quick = Array.exists (fun a -> a = "--quick") Sys.argv in
          if flag "quick" <> here_quick then
            Printf.eprintf
              "check: warning: baseline quick=%b but this run quick=%b — \
               comparison may be meaningless\n"
              (flag "quick") here_quick
        | None -> ());
        let baseline =
          match Json.field "measurements" j with
          | Json.List ms ->
            List.map
              (fun m ->
                (Json.str (Json.field "name" m),
                 Json.num (Json.field "ns_per_run" m)))
              ms
          | _ -> raise (Json.Bad "measurements is not an array")
        in
        let current = List.rev !results in
        let tol_factor = 1. +. (tolerance /. 100.) in
        let regressions = ref 0
        and compared = ref 0
        and noisy = ref 0
        and missing = ref 0 in
        Printf.printf
          "\n-- perf check against %s (tolerance %.0f%%) --\n%-44s %12s \
           %12s %8s  %s\n"
          path tolerance "measurement" "base" "current" "ratio" "verdict";
        List.iter
          (fun (name, ns, _tuples, _rows) ->
            match List.assoc_opt name baseline with
            | None -> incr missing
            | Some base_ns ->
              let ratio = if base_ns > 0. then ns /. base_ns else 1. in
              let verdict =
                if base_ns < noise_floor_ns || ns < noise_floor_ns then (
                  incr noisy;
                  "noise")
                else begin
                  incr compared;
                  if ns > base_ns *. tol_factor
                     && ns -. base_ns > min_delta_ns
                  then (
                    incr regressions;
                    "REGRESSION")
                  else if ns < base_ns /. tol_factor then "improved"
                  else "ok"
                end
              in
              Printf.printf "%-44s %9.2fms %9.2fms %7.2fx  %s\n" name
                (base_ns /. 1e6) (ns /. 1e6) ratio verdict)
          current;
        if !missing > 0 then
          Printf.printf
            "(%d measurements not in the baseline were skipped)\n" !missing;
        Printf.printf
          "checked %d measurements (%d below the %.0fms noise floor): %s\n"
          (!compared + !noisy) !noisy (noise_floor_ns /. 1e6)
          (if !regressions > 0 then
             Printf.sprintf "%d REGRESSION(S)" !regressions
           else "no regressions");
        if !regressions > 0 then 1 else 0))

(* wall-clock one-shot timing for the macro experiments, on telemetry's
   monotonic clock (the same clock the span sinks use); Bechamel stays in
   charge of the micro-benchmarks.  Monotonic wall-clock rather than
   [Sys.time]: CPU time summed over every domain would hide exactly the
   parallel speedup E12 measures. *)
let timed = T.timed
let walltimed = T.timed

(* best-of-three wall clock: one-shot numbers at the tens-of-ms scale are
   noisy on a shared machine *)
let walltimed3 f =
  let t1, r = walltimed f in
  let t2, _ = walltimed f in
  let t3, _ = walltimed f in
  (Float.min t1 (Float.min t2 t3), r)

(* Best-of-three at the allocator steady state: several warm-up runs with a
   compaction after each, then a compaction before every timed run (outside
   the timed window).  The warm-ups matter on fresh multi-megabyte data:
   until the dead results of earlier runs have actually been freed back to
   the allocator, every output buffer is freshly mapped memory and the
   kernel's page-fault cost — tens of microseconds per page on a
   virtualized host — dwarfs the compute being measured.  After a few
   alloc/free cycles the allocator retains and reuses the pages and the
   per-run cost is the kernels themselves, which is the repeated-query
   regime the benchmark is about. *)
let walltimed3s f =
  for _ = 1 to 5 do
    ignore (f ());
    Gc.compact ()
  done;
  let best = ref infinity and res = ref None in
  for _ = 1 to 3 do
    Gc.compact ();
    let t, r = walltimed f in
    if t < !best then best := t;
    res := Some r
  done;
  (!best, Option.get !res)

let scaling_table ~quick () =
  hr "Evaluator scaling (Q1; RA / TRC / DRC / Datalog), wall-clock";
  let e = Diagres.Catalog.find "q1" in
  let ra = Diagres.Catalog.parsed_ra e in
  let trc = Diagres.Catalog.parsed_trc e in
  let drc = Diagres.Catalog.parsed_drc e in
  let dl = Diagres.Catalog.parsed_datalog e in
  Printf.printf "%8s %10s %10s %10s %10s %13s %13s\n" "tuples" "RA(s)"
    "TRC(s)" "DRC(s)" "DL(s)" "TRCnaive(s)" "DRCnaive(s)";
  List.iter
    (fun n ->
      let rdb =
        Diagres_data.Generator.sailors_db ~n_sailors:n
          ~n_boats:(max 4 (n / 10))
          ~n_reserves:(2 * n) (n + 7)
      in
      let ntup = Diagres_data.Database.total_tuples rdb in
      let run name f =
        let t, r = timed f in
        record ~name:(Printf.sprintf "scaling/%s/n=%d" name n)
          ~ns:(t *. 1e9) ~tuples:ntup
          ~rows:(Diagres_data.Relation.cardinality r);
        t
      in
      let t_ra = run "q1-ra" (fun () -> Diagres_ra.Eval.eval rdb ra) in
      let t_trc = run "q1-trc" (fun () -> Diagres_rc.Trc.eval rdb trc) in
      let t_drc =
        run "q1-drc-planned" (fun () -> Diagres_rc.Drc_to_ra.eval rdb drc)
      in
      let t_dl =
        run "q1-datalog" (fun () ->
            Diagres_datalog.Eval.query rdb dl ~goal:"q1")
      in
      (* the full-scan baselines are quadratic-and-worse: only run them
         while they stay in check, so the 10k row finishes in seconds *)
      let naive name f =
        if n > 1000 then None else Some (run name f)
      in
      let t_trc_n =
        naive "q1-trc-naive" (fun () -> Diagres_rc.Trc.eval_naive rdb trc)
      in
      let t_drc_n =
        if n > 100 then None
        else Some (run "q1-drc-naive" (fun () -> Diagres_rc.Drc.eval_naive rdb drc))
      in
      let opt = function
        | Some t -> Printf.sprintf "%13.5f" t
        | None -> Printf.sprintf "%13s" "-"
      in
      Printf.printf "%8d %10.5f %10.5f %10.5f %10.5f %s %s\n" ntup t_ra t_trc
        t_drc t_dl (opt t_trc_n) (opt t_drc_n))
    (if quick then [ 10; 100 ] else [ 10; 100; 1000; 10_000 ]);
  Printf.printf
    "(index-backed engines stay near-linear; '-' = full-scan baseline \
     skipped beyond its feasible size)\n"

(* ------------------------------------------------------------------ *)
(* E11: the cost-based physical planner against the two older engines:
   the naive tree-walker on the raw expression, and the same tree-walker
   on the logically optimized expression (PR-1's best).  Two workloads:
   a selective theta-join written as σ over ×, and the RA produced by the
   TRC → RA translation of catalog Q1.                                  *)

let e11_table ~quick () =
  hr "E11  cost-based physical planner (naive / optimized-logical / planned)";
  let agree =
    List.for_all
      (fun e ->
        let ra = Diagres.Catalog.parsed_ra e in
        Diagres_data.Relation.same_rows (Diagres_ra.Eval.eval db ra)
          (Diagres_ra.Eval.eval_planned db ra))
      Diagres.Catalog.all
  in
  Printf.printf "catalog q1–q5: planned result = reference result: %b\n\n" agree;
  let theta =
    Diagres_ra.Parser.parse
      "project[sid2](select[sid = sid2 and rating = 10](Sailor * rename[sid \
       -> sid2, bid -> bid2, day -> day2](Reserves)))"
  in
  let q1_translated =
    Diagres_rc.Translate.trc_to_ra schemas
      (Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q1"))
  in
  let queries = [ ("theta-join", theta); ("q1-from-trc", q1_translated) ] in
  Printf.printf "%-12s %9s %11s %14s %12s %10s\n" "query" "tuples" "naive(s)"
    "optimized(s)" "planned(s)" "speedup";
  let sizes = if quick then [ 100; 500 ] else [ 1000; 10_000 ] in
  List.iter
    (fun n ->
      let rdb =
        Diagres_data.Generator.sailors_db ~n_sailors:n
          ~n_boats:(max 4 (n / 10))
          ~n_reserves:(2 * n) (n + 7)
      in
      let ntup = Diagres_data.Database.total_tuples rdb in
      List.iter
        (fun (qname, ra) ->
          let opt = Diagres_ra.Optimize.optimize_db rdb ra in
          let run engine f =
            let t, r = timed f in
            record
              ~name:(Printf.sprintf "planner/%s/%s/n=%d" qname engine n)
              ~ns:(t *. 1e9) ~tuples:ntup
              ~rows:(Diagres_data.Relation.cardinality r);
            t
          in
          (* the raw tree walk materializes the full n × 2n product: only
             feasible at the small scale *)
          let t_naive =
            if n > 1000 then None
            else Some (run "naive" (fun () -> Diagres_ra.Eval.eval rdb ra))
          in
          let t_opt =
            run "optimized" (fun () -> Diagres_ra.Eval.eval rdb opt)
          in
          let t_plan =
            run "planned" (fun () -> Diagres_ra.Eval.eval_planned rdb ra)
          in
          let opt_s = function
            | Some t -> Printf.sprintf "%11.4f" t
            | None -> Printf.sprintf "%11s" "-"
          in
          Printf.printf "%-12s %9d %s %14.4f %12.4f %9.1fx\n" qname ntup
            (opt_s t_naive) t_opt t_plan (t_opt /. t_plan))
        queries)
    sizes;
  Printf.printf
    "(speedup = optimized-logical / planned: what hash-join extraction, \
     join ordering and compiled predicates add on top of the rewrites)\n"

(* ------------------------------------------------------------------ *)
(* E12: parallel execution + plan cache.                                *)

module Pool = Diagres_pool.Pool

(* The domain sweep (--domains 1,2,4,8): the join-heavy E11 workloads,
   executed by the same compiled plan at each domain count.  Plans are
   built once and re-run (each Plan.run computes every node afresh), so
   the sweep isolates the execution layer; a warm-up run populates the
   relation-level index caches first so every domain count probes the
   same read-only structures. *)
let e12_parallel_table ~quick ~domains () =
  hr "E12  morsel-parallel execution: domain sweep (wall-clock)";
  let theta =
    Diagres_ra.Parser.parse
      "project[sid2](select[sid = sid2 and rating = 10](Sailor * rename[sid \
       -> sid2, bid -> bid2, day -> day2](Reserves)))"
  in
  let q1_translated =
    Diagres_rc.Translate.trc_to_ra schemas
      (Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q1"))
  in
  let queries = [ ("theta-join", theta); ("q1-from-trc", q1_translated) ] in
  let sizes = if quick then [ 300 ] else [ 1000; 10_000; 30_000 ] in
  Printf.printf "%-12s %9s" "query" "tuples";
  List.iter (fun d -> Printf.printf " %9s" (Printf.sprintf "%dd (s)" d)) domains;
  Printf.printf " %9s %7s\n" "speedup" "agree";
  List.iter
    (fun n ->
      let rdb =
        Diagres_data.Generator.sailors_db ~n_sailors:n
          ~n_boats:(max 4 (n / 10))
          ~n_reserves:(2 * n) (n + 7)
      in
      let ntup = Diagres_data.Database.total_tuples rdb in
      List.iter
        (fun (qname, ra) ->
          let plan = Diagres_ra.Planner.plan rdb ra in
          let reference = Diagres_ra.Plan.run plan in  (* warm indexes *)
          let times =
            List.map
              (fun d ->
                Pool.set_size d;
                let t, r = walltimed3 (fun () -> Diagres_ra.Plan.run plan) in
                record
                  ~name:
                    (Printf.sprintf "e12/parallel/%s/n=%d/domains=%d" qname n d)
                  ~ns:(t *. 1e9) ~tuples:ntup
                  ~rows:(Diagres_data.Relation.cardinality r);
                (t, Diagres_data.Relation.same_rows reference r))
              domains
          in
          Pool.set_size 1;
          let agree = List.for_all snd times in
          Printf.printf "%-12s %9d" qname ntup;
          List.iter (fun (t, _) -> Printf.printf " %9.4f" t) times;
          let t1 = fst (List.hd times) and tn = fst (List.hd (List.rev times)) in
          Printf.printf " %8.2fx %7b\n" (t1 /. tn) agree)
        queries)
    sizes;
  Printf.printf
    "(speedup = 1 domain / largest sweep entry; agree = identical sorted \
     tuple sets at every domain count; this host has %d core(s))\n"
    (Domain.recommended_domain_count ())

(* The repeated-query benchmark: the serving scenario.  The same query
   evaluated many times — cold planning on every call (plan cache cleared
   each iteration) vs the warm LRU plan cache (planning skipped; the plan
   is re-executed from a clean per-node slate each call). *)
let e12_plan_cache_table ~quick () =
  hr "E12  plan cache: repeated-query serving (same query, 1000 evals)";
  let reps = if quick then 100 else 1000 in
  let q1_translated =
    Diagres_rc.Translate.trc_to_ra schemas
      (Diagres.Catalog.parsed_trc (Diagres.Catalog.find "q1"))
  in
  let theta =
    Diagres_ra.Parser.parse
      "project[sid2](select[sid = sid2 and rating = 10](Sailor * rename[sid \
       -> sid2, bid -> bid2, day -> day2](Reserves)))"
  in
  Printf.printf "%-12s %9s %7s %12s %12s %9s %14s\n" "query" "tuples" "evals"
    "cold(s)" "warm(s)" "speedup" "hits/misses";
  List.iter
    (fun (qname, ra, dbi) ->
      let ntup = Diagres_data.Database.total_tuples dbi in
      (* cold: plan every call, as a cache with capacity 1 under a
         changing workload would *)
      let t_cold, reference =
        walltimed (fun () ->
            let r = ref (Diagres_ra.Eval.eval db (Diagres_ra.Ast.Rel "Sailor")) in
            for _ = 1 to reps do
              Diagres_ra.Plan_cache.clear ();
              r := Diagres_ra.Eval.eval_planned dbi ra
            done;
            !r)
      in
      (* warm: one miss, then pure cache hits *)
      Diagres_ra.Plan_cache.clear ();
      Diagres_ra.Plan_cache.reset_stats ();
      let t_warm, warm_result =
        walltimed (fun () ->
            let r = ref reference in
            for _ = 1 to reps do
              r := Diagres_ra.Eval.eval_planned dbi ra
            done;
            !r)
      in
      let hits, misses = Diagres_ra.Plan_cache.stats () in
      assert (Diagres_data.Relation.same_rows reference warm_result);
      record
        ~name:(Printf.sprintf "e12/plan-cache/%s/cold" qname)
        ~ns:(t_cold /. float_of_int reps *. 1e9)
        ~tuples:ntup
        ~rows:(Diagres_data.Relation.cardinality reference);
      record
        ~name:(Printf.sprintf "e12/plan-cache/%s/warm" qname)
        ~ns:(t_warm /. float_of_int reps *. 1e9)
        ~tuples:ntup
        ~rows:(Diagres_data.Relation.cardinality reference);
      Printf.printf "%-12s %9d %7d %12.4f %12.4f %8.1fx %8d/%d\n" qname ntup
        reps t_cold t_warm (t_cold /. t_warm) hits misses)
    [ ("q1-from-trc", q1_translated, db);
      ("theta-join", theta, db);
      ( "q1-trc-1k",
        q1_translated,
        Diagres_data.Generator.sailors_db ~n_sailors:1000 ~n_boats:100
          ~n_reserves:2000 1007 ) ];
  Printf.printf
    "(cold = optimize+plan+execute per call; warm = LRU plan-cache hit, \
     execute only; every run computes its nodes afresh, so every eval \
     touches the data)\n"

(* ------------------------------------------------------------------ *)
(* E13: the columnar substrate.  The same physical plan executed twice —
   row-at-a-time (columnar disabled) vs vectorized over column batches —
   on a selective filter and a key join, from 10k up to 1M sailors.  The
   ns/row columns are the point: the vectorized per-row cost stays flat
   as the input grows, so the speedup holds at scale.  The one-time
   row→column conversion is paid in the warm-up run (it memoizes on the
   relation), matching the serving workload: scan once, decode never. *)

(* A columnar-born copy of a generated database: the relations share the
   converted column batches, the row-oriented originals (tuple sets, boxed
   values) become garbage.  This is the steady state the substrate is for
   — data loaded into columns once, queried many times — and it is what
   makes the comparison honest at the million-row scale: holding a
   gigabyte of boxed rows live would tax every allocation the vectorized
   kernels make with major-GC marking work on the row data's behalf. *)
let columnar_db n =
  (* built column-first: no boxed tuple set is ever materialized, which
     is what makes the 10M-row sweep affordable *)
  Diagres_data.Generator.sailors_db_columnar ~n_sailors:n (n + 7)

let e13_table ~quick ~huge () =
  hr "E13  columnar vs row execution (same plan, kernels toggled)";
  let queries =
    [ ("filter", "select[rating > 7](Sailor)");
      ("join", "project[sname](Sailor join Reserves)");
      ("union", "select[rating > 7](Sailor) union select[rating <= 3](Sailor)");
      ("diff", "project[sid](Sailor) minus project[sid](Reserves)") ]
  in
  let sizes =
    if quick then [ 1000 ]
    else if huge then [ 10_000; 100_000; 1_000_000; 10_000_000 ]
    else [ 10_000; 100_000; 1_000_000 ]
  in
  let old_col = !Diagres_ra.Plan.columnar_enabled in
  (* at 10M+ rows the full 5-warm-up protocol would cost many minutes per
     cell, but a true single shot times the allocator, not the kernels:
     the first run's output buffers are freshly mapped pages (see the
     walltimed3s comment).  Best-of-three after a compaction is enough —
     run 1 pays the faults, runs 2–3 reuse the retained pages. *)
  let sample n f =
    if n >= 10_000_000 then (
      Gc.compact ();
      walltimed3 f)
    else walltimed3s f
  in
  Printf.printf "%-8s %9s %10s %10s %9s %11s %11s %7s\n" "query" "tuples"
    "row(s)" "col(s)" "speedup" "row ns/row" "col ns/row" "agree";
  List.iter
    (fun n ->
      let rdb = columnar_db n in
      Gc.compact ();
      let ntup = Diagres_data.Database.total_tuples rdb in
      let plans =
        List.map
          (fun (qname, src) ->
            (qname, Diagres_ra.Planner.plan rdb (Diagres_ra.Parser.parse src)))
          queries
      in
      (* vectorized first, while only the columns are live; the row pass
         afterwards materializes boxed tuples on demand (memoized, so its
         warm-up pays the decode once, outside the timed region) *)
      Diagres_ra.Plan.columnar_enabled := true;
      let col_times =
        List.map
          (fun (qname, plan) ->
            let warm = Diagres_ra.Plan.run plan in
            let t_col, r = sample n (fun () -> Diagres_ra.Plan.run plan) in
            (qname, plan, warm, r, t_col))
          plans
      in
      Diagres_ra.Plan.columnar_enabled := false;
      List.iter
        (fun (qname, plan, warm, rcol, t_col) ->
          let reference = Diagres_ra.Plan.run plan in
          let t_row, _ = sample n (fun () -> Diagres_ra.Plan.run plan) in
          let agree =
            Diagres_data.Relation.same_rows reference warm
            && Diagres_data.Relation.same_rows reference rcol
          in
          let rows = Diagres_data.Relation.cardinality reference in
          record
            ~name:(Printf.sprintf "e13/%s/row/n=%d" qname n)
            ~ns:(t_row *. 1e9) ~tuples:ntup ~rows;
          record
            ~name:(Printf.sprintf "e13/%s/columnar/n=%d" qname n)
            ~ns:(t_col *. 1e9) ~tuples:ntup ~rows;
          Printf.printf "%-8s %9d %10.4f %10.4f %8.1fx %11.1f %11.1f %7b\n"
            qname ntup t_row t_col (t_row /. t_col)
            (t_row /. float_of_int ntup *. 1e9)
            (t_col /. float_of_int ntup *. 1e9)
            agree)
        col_times;
      Diagres_ra.Plan.columnar_enabled := old_col)
    sizes;
  Printf.printf
    "(same physical plan both times — only the execution kernels differ; \
     both modes run warm: columns converted and boxed tuples decoded \
     before timing, the repeated-query steady state)\n"

(* E14: incremental view maintenance.  A registered join view under an
   update stream: per round, 1% of Reserves is deleted and a like number
   of fresh reservations inserted; the maintained result (differential
   evaluation, Delta) is timed against re-planning and re-running the
   query on the updated database (the plan cache can't help — the
   database stamp changed).  The base-table update itself (apply) is the
   shared cost both alternatives pay.  Timings are per-round bests over
   [rounds] distinct batches; round 0 is an untimed warm-up that builds
   the join-side index the delta probes reuse. *)
let e14_table ~quick () =
  hr "E14  incremental view maintenance: maintain vs recompute (1% batches)";
  let src = "project[sname](Sailor join Reserves)" in
  let e = Diagres_ra.Parser.parse src in
  let sizes = if quick then [ 1000 ] else [ 10_000; 100_000; 1_000_000 ] in
  Printf.printf "%-9s %9s %9s %12s %12s %12s %9s %7s\n" "sailors" "tuples"
    "Δ rows" "apply(ms)" "maintain(ms)" "recomp(ms)" "speedup" "agree";
  List.iter
    (fun n ->
      let db = ref (columnar_db n) in
      Gc.compact ();
      let ntup = Diagres_data.Database.total_tuples !db in
      let plan = Diagres_ra.Planner.plan !db e in
      let view = Diagres_ra.Delta.init plan in
      let r = Diagres_data.Generator.rng (n + 13) in
      let rounds = if quick then 3 else 5 in
      let one_round () =
        let changes =
          Diagres_data.Generator.update_batch ~relations:[ "Reserves" ]
            ~frac:0.01 r !db
        in
        let t_apply, (db', applied) =
          walltimed (fun () -> Diagres_data.Database.apply_delta changes !db)
        in
        db := db';
        let t_maintain, rep =
          walltimed (fun () -> Diagres_ra.Delta.maintain view applied)
        in
        let t_recompute, recomputed =
          walltimed (fun () -> Diagres_ra.Eval.eval_planned !db e)
        in
        let delta_rows =
          List.fold_left
            (fun a (_, _, ins, del) ->
              a
              + Diagres_data.Relation.cardinality ins
              + Diagres_data.Relation.cardinality del)
            0 applied
        in
        let agree =
          Diagres_data.Relation.same_rows recomputed
            rep.Diagres_ra.Delta.result
        in
        (t_apply, t_maintain, t_recompute, delta_rows, agree)
      in
      ignore (one_round ());
      (* warm-up: builds the cached join-side index *)
      let best3 = ref (infinity, infinity, infinity) in
      let rows = ref 0 and agree_all = ref true in
      for _ = 1 to rounds do
        let ta, tm, tr, dr, ag = one_round () in
        let ba, bm, br = !best3 in
        best3 := (Float.min ba ta, Float.min bm tm, Float.min br tr);
        rows := dr;
        agree_all := !agree_all && ag
      done;
      let ta, tm, tr = !best3 in
      record
        ~name:(Printf.sprintf "e14/maintain/n=%d" n)
        ~ns:(tm *. 1e9) ~tuples:ntup ~rows:!rows;
      record
        ~name:(Printf.sprintf "e14/recompute/n=%d" n)
        ~ns:(tr *. 1e9) ~tuples:ntup ~rows:!rows;
      Printf.printf "%-9d %9d %9d %12.3f %12.3f %12.3f %8.1fx %7b\n" n ntup
        !rows (ta *. 1e3) (tm *. 1e3) (tr *. 1e3) (tr /. tm) !agree_all)
    sizes;
  Printf.printf
    "(apply = updating the base tables, paid by both alternatives; \
     maintain = differential propagation through the registered plan; \
     recomp = re-plan + re-run on the updated database)\n"

(* E18: calculus translations through the planner.  Each catalog query is
   translated from SQL, TRC, DRC and Datalog to RA ([Languages.to_ra]) and
   run planned ([Eval.eval_planned]: typecheck, plan cache, Plan.run)
   beside the hand-written RA of the catalog, planned the same way.  Both
   times are warm (the plan is cached); the ratio is translation over
   hand-written, and size is the length of the translation's RA text.
   ROADMAP item 1 targets every ratio within 1.5x and sizes linear in the
   source query. *)
let e18_table ~quick () =
  hr "E18  calculus -> RA translations planned vs hand-written RA";
  let module L = Diagres.Languages in
  let module C = Diagres.Catalog in
  let instances =
    ("sample", Diagres_data.Sample_db.db)
    :: (if quick then []
        else
          [ ( "1000 sailors",
              Diagres_data.Generator.sailors_db ~n_sailors:1000 ~n_boats:100
                ~n_reserves:2000 7 ) ])
  in
  let time f = if quick then walltimed3 f else walltimed3s f in
  Printf.printf "%-7s %-4s %-8s %12s %12s %8s %8s %6s
" "tuples" "id" "lang"
    "trans(ms)" "hand(ms)" "ratio" "ra-size" "agree";
  List.iter
    (fun (_, db) ->
      let ntup = Diagres_data.Database.total_tuples db in
      let schemas = Diagres_ra.Typecheck.env_of_database db in
      List.iter
        (fun (e : C.entry) ->
          let hand = C.parsed_ra e in
          let t_hand, expected = time (fun () -> Diagres_ra.Eval.eval_planned db hand) in
          record
            ~name:(Printf.sprintf "e18/%s/ra/n=%d" e.C.id ntup)
            ~ns:(t_hand *. 1e9) ~tuples:ntup
            ~rows:(Diagres_data.Relation.cardinality expected);
          List.iter
            (fun (lang, src) ->
              let ra = L.to_ra schemas (L.parse lang src) in
              let t, got = time (fun () -> Diagres_ra.Eval.eval_planned db ra) in
              let tag = String.lowercase_ascii (L.name lang) in
              record
                ~name:(Printf.sprintf "e18/%s/%s/n=%d" e.C.id tag ntup)
                ~ns:(t *. 1e9) ~tuples:ntup
                ~rows:(Diagres_data.Relation.cardinality got);
              Printf.printf "%-7d %-4s %-8s %12.3f %12.3f %7.2fx %8d %6b
" ntup
                e.C.id (L.name lang) (t *. 1e3) (t_hand *. 1e3) (t /. t_hand)
                (String.length (Diagres_ra.Pretty.ascii ra))
                (Diagres_data.Relation.same_rows expected got))
            [ (L.Sql, e.C.sql); (L.Trc, e.C.trc); (L.Drc, e.C.drc);
              (L.Datalog, e.C.datalog) ])
        C.all)
    instances;
  Printf.printf
    "(trans = the language's RA translation planned; hand = the catalog's \
     hand-written RA planned; both warm, best of three)\n"

let stage = Staged.stage

let bench_tests () =
  let e = Diagres.Catalog.find "q1" in
  let e3 = Diagres.Catalog.find "q3" in
  let ra1 = Diagres.Catalog.parsed_ra e in
  let trc1 = Diagres.Catalog.parsed_trc e in
  let drc1 = Diagres.Catalog.parsed_drc e in
  let trc3 = Diagres.Catalog.parsed_trc e3 in
  let dl3 = Diagres.Catalog.parsed_datalog e3 in
  let alpha_formula = Diagres_logic.Prop.parse "(p & q -> r) & !(s | p & !q)" in
  let beta_sentence =
    Diagres_rc.Drc_parser.parse_formula
      "exists s, b, d (Reserves(s, b, d) & not (exists n, c (Boat(b, n, c) \
       & c = 'red')))"
  in
  let beta_graph = Diagres_diagrams.Eg_beta.of_drc beta_sentence in
  let q3_sql = e3.Diagres.Catalog.sql in
  let raw_translated = Diagres_rc.Translate.trc_to_ra schemas trc1 in
  let opt_translated = Diagres_ra.Optimize.optimize_db db raw_translated in
  [
    Test.make ~name:"e1/eval-ra-q1" (stage (fun () -> Diagres_ra.Eval.eval db ra1));
    Test.make ~name:"e1/eval-trc-q1" (stage (fun () -> Diagres_rc.Trc.eval db trc1));
    Test.make ~name:"e1/eval-drc-planned-q1"
      (stage (fun () -> Diagres_rc.Drc_to_ra.eval db drc1));
    Test.make ~name:"e1/eval-datalog-q3"
      (stage (fun () -> Diagres_datalog.Eval.query db dl3 ~goal:"q3"));
    Test.make ~name:"e1/translate-trc-to-ra-q1"
      (stage (fun () -> Diagres_rc.Translate.trc_to_ra schemas trc1));
    Test.make ~name:"e2/venn-256-syllogisms"
      (stage (fun () ->
           List.iter
             (fun m -> ignore (Diagres_diagrams.Syllogism.valid_venn m))
             Diagres_diagrams.Syllogism.all_moods));
    Test.make ~name:"e3/alpha-roundtrip"
      (stage (fun () ->
           Diagres_diagrams.Eg_alpha.to_prop
             (Diagres_diagrams.Eg_alpha.of_prop alpha_formula)));
    Test.make ~name:"e3/alpha-double-cut"
      (stage (fun () ->
           let g = Diagres_diagrams.Eg_alpha.of_prop alpha_formula in
           Diagres_diagrams.Eg_alpha.double_cut_insert g ~path:[]));
    Test.make ~name:"e3/alpha-proof-search-mp"
      (stage (fun () ->
           let premise =
             Diagres_diagrams.Eg_alpha.of_prop
               (Diagres_logic.Prop.parse "p & (p -> q)")
           in
           let goal =
             Diagres_diagrams.Eg_alpha.of_prop (Diagres_logic.Prop.Var "q")
           in
           Diagres_diagrams.Eg_alpha_proof.prove ~premise ~goal ()));
    Test.make ~name:"e4/beta-of-drc"
      (stage (fun () -> Diagres_diagrams.Eg_beta.of_drc beta_sentence));
    Test.make ~name:"e4/beta-to-drc"
      (stage (fun () -> Diagres_diagrams.Eg_beta.to_drc beta_graph));
    Test.make ~name:"e5/qbe-of-datalog-q3"
      (stage (fun () -> Diagres_diagrams.Qbe.of_datalog schemas dl3 ~goal:"q3"));
    Test.make ~name:"e6/rd-scene-q3"
      (stage (fun () -> Diagres_diagrams.Relational_diagram.of_trc trc3));
    Test.make ~name:"e6/rd-svg-q3"
      (stage (fun () ->
           Diagres_diagrams.Relational_diagram.to_svg
             (Diagres_diagrams.Relational_diagram.of_trc trc3)));
    Test.make ~name:"e6/queryvis-scene-q3"
      (stage (fun () -> Diagres_diagrams.Queryvis.of_trc trc3));
    Test.make ~name:"e7/dfql-layout-q3"
      (stage (fun () ->
           Diagres_diagrams.Dfql.layout
             (Diagres_diagrams.Dfql.of_ra (Diagres.Catalog.parsed_ra e3))));
    Test.make ~name:"e8/pattern-canonical-q3"
      (stage (fun () -> Diagres.Pattern.canonical_string `Literal trc3));
    Test.make ~name:"e9/pipeline-sql-to-rd-q3"
      (stage (fun () -> Diagres.Pipeline.run db "sql" q3_sql "rd"));
    Test.make ~name:"ablation/eval-translated-raw"
      (stage (fun () -> Diagres_ra.Eval.eval db raw_translated));
    Test.make ~name:"ablation/eval-translated-optimized"
      (stage (fun () -> Diagres_ra.Eval.eval db opt_translated));
    Test.make ~name:"ablation/eval-translated-planned"
      (stage (fun () -> Diagres_ra.Eval.eval_planned db raw_translated));
  ]

let run_benchmarks () =
  hr "Bechamel micro-benchmarks (OLS time per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  (* a too-small quota gives unstable OLS fits on allocation-heavy runs;
     0.75 s per test keeps estimates within a few percent of direct
     wall-clock timing *)
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.75) () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let result = Analyze.one ols instance raw in
          let ns =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> est
            | _ -> nan
          in
          let name = Test.Elt.name elt in
          record ~name:("micro/" ^ name) ~ns
            ~tuples:(Diagres_data.Database.total_tuples db)
            ~rows:0;
          if ns >= 1e6 then
            Printf.printf "%-42s %12.2f ms/run\n" name (ns /. 1e6)
          else if ns >= 1e3 then
            Printf.printf "%-42s %12.2f us/run\n" name (ns /. 1e3)
          else Printf.printf "%-42s %12.1f ns/run\n" name ns)
        (Test.elements test))
    (bench_tests ())

(* E16: estimated heap footprint of the sailors databases at increasing
   scale — the numbers behind EXPERIMENTS.md's memory table.  Builds each
   database, forces the statistics and one secondary index per relation
   (a key-column probe, the planner's steady state after its first join)
   so the cache figures are live, then reports the per-owner physical
   estimates from {!Relation.memory_bytes}.  The totals are also pushed
   through {!Views.refresh_memory_gauges}, so a --json snapshot taken in
   the same run carries them in its "gauges" section. *)
let e16_memory_table ~quick ~huge () =
  hr "E16  memory footprint (estimated heap bytes)";
  let sizes =
    if quick then [ 10_000 ]
    else if huge then [ 10_000; 1_000_000; 10_000_000 ]
    else [ 10_000; 1_000_000 ]
  in
  Printf.printf "%9s %-10s %10s %12s %12s %12s\n" "sailors" "relation"
    "rows" "data" "indexes" "stats";
  List.iter
    (fun n ->
      let db = columnar_db n in
      List.iter
        (fun (_, r) ->
          ignore (Diagres_data.Relation.stats r);
          ignore
            (Diagres_data.Relation.matching r [ 0 ]
               [| Diagres_data.Value.Int 1 |]))
        (Diagres_data.Database.relations db);
      Diagres.Views.refresh_memory_gauges db;
      let tot_data = ref 0 and tot_ix = ref 0 and tot_st = ref 0 in
      List.iter
        (fun (rname, r) ->
          let data = Diagres_data.Relation.memory_bytes r in
          let ix, st = Diagres_data.Relation.caches_memory_bytes r in
          tot_data := !tot_data + data;
          tot_ix := !tot_ix + ix;
          tot_st := !tot_st + st;
          Printf.printf "%9d %-10s %10d %12s %12s %12s\n" n rname
            (Diagres_data.Relation.cardinality r)
            (T.bytes_to_string (float_of_int data))
            (T.bytes_to_string (float_of_int ix))
            (T.bytes_to_string (float_of_int st)))
        (Diagres_data.Database.relations db);
      Printf.printf "%9d %-10s %10s %12s %12s %12s\n" n "TOTAL" ""
        (T.bytes_to_string (float_of_int !tot_data))
        (T.bytes_to_string (float_of_int !tot_ix))
        (T.bytes_to_string (float_of_int !tot_st));
      Gc.compact ())
    sizes

let () =
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  (* --quick: CI smoke mode — small scaling sizes, skip the bechamel micros *)
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  (* --huge: extend the E13 columnar sweep to 10M sailors *)
  let huge = Array.exists (fun a -> a = "--huge") Sys.argv in
  (* --domains 1,2,4,8: the E12 sweep's domain counts *)
  let domains =
    let rec find = function
      | "--domains" :: spec :: _ -> Some spec
      | _ :: rest -> find rest
      | [] -> None
    in
    match find (Array.to_list Sys.argv) with
    | Some spec ->
      List.map int_of_string (String.split_on_char ',' spec)
    | None -> if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]
  in
  (* --only e13,e14: run a subset of the sections (shape, scaling,
     e11, e12, e13, e14, e16, e18, micro) *)
  let only =
    let rec find = function
      | "--only" :: spec :: _ -> Some (String.split_on_char ',' spec)
      | _ :: rest -> find rest
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  let want name = match only with None -> true | Some l -> List.mem name l in
  if want "shape" then begin
    e1_table ();
    e2_table ();
    e4_table ();
    e5_table ();
    e6_table ();
    nesting_table ();
    e8_table ();
    e10_table ()
  end;
  if want "scaling" then scaling_table ~quick ();
  if want "e11" then e11_table ~quick ();
  if want "e12" then begin
    e12_parallel_table ~quick ~domains ();
    e12_plan_cache_table ~quick ()
  end;
  if want "e13" then e13_table ~quick ~huge ();
  if want "e14" then e14_table ~quick ();
  if want "e16" then e16_memory_table ~quick ~huge ();
  if want "e18" then e18_table ~quick ();
  if (not quick) && want "micro" then run_benchmarks ();
  Option.iter (write_json ~quick ~huge ~domains) json_path;
  (* --check BASELINE [--tolerance PCT]: compare this run's measurements
     against a committed snapshot and exit non-zero on regression *)
  let check_path =
    let rec find = function
      | "--check" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  let tolerance =
    let rec find = function
      | "--tolerance" :: pct :: _ -> Some pct
      | _ :: rest -> find rest
      | [] -> None
    in
    match find (Array.to_list Sys.argv) with
    | Some pct -> (
      match float_of_string_opt pct with
      | Some f when f >= 0. -> f
      | _ ->
        Printf.eprintf "ignoring --tolerance %s (want a percentage)\n" pct;
        25.)
    | None -> 25.
  in
  (match check_path with
  | Some path ->
    let status = check_baseline ~tolerance path in
    if status <> 0 then exit status
  | None -> ());
  print_newline ()
