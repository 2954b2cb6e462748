(* qviz — the query-visualization command line.

   Subcommands:
     qviz show      -l sql -f rd "SELECT ..."        draw a query (ascii/svg)
     qviz translate -l sql -t trc "SELECT ..."       translate between languages
     qviz eval      -l trc "{ ... }"                 evaluate on the sample db
     qviz stats     "SELECT ..."                     engine metrics registry
     qviz catalog                                    the 5 tutorial queries
     qviz survey                                     the Part-5 capability matrix
     qviz syllogisms                                 valid moods via Venn algebra *)

open Cmdliner

let db_arg =
  let doc =
    "Directory of CSV files to use as the database (one relation per \
     file, named after it).  Defaults to the built-in sailors instance."
  in
  Arg.(value & opt (some dir) None & info [ "db" ] ~docv:"DIR" ~doc)

let load_db = function
  | None -> Diagres_data.Sample_db.db
  | Some dir -> Diagres_data.Csv.load_database dir

let schemas_of db =
  List.map
    (fun (n, r) -> (n, Diagres_data.Relation.schema r))
    (Diagres_data.Database.relations db)

let lang_arg =
  let doc = "Query language: sql, ra, trc, drc, datalog." in
  Arg.(value & opt string "sql" & info [ "l"; "lang" ] ~docv:"LANG" ~doc)

let query_arg =
  let doc = "The query text (in the chosen language's concrete syntax)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

(* Outermost error net: every failure — user-triggerable or internal — is
   rendered as a structured diagnostic (code, caret excerpt over the query
   text when located, did-you-mean hints) and mapped to a per-phase exit
   code: resolve 1, parse 2, type/safety 3, data 4, eval 5, internal 70. *)
let handle_errors ?src f =
  match Diagres.Errors.capture_all f with
  | Ok x -> x
  | Error d ->
    let d =
      match src with
      | Some text -> Diagres_diag.Diag.with_source ~text d
      | None -> d
    in
    prerr_string (Diagres_diag.Diag.render d);
    exit (Diagres_diag.Diag.exit_code d)

(* ---------------- telemetry plumbing ---------------- *)

module T = Diagres_telemetry.Telemetry

let trace_arg =
  let doc =
    "Enable telemetry and write the recorded spans as Chrome trace-event \
     JSON to $(docv) on success (loadable in Perfetto or chrome://tracing)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

(* Enable tracing when any sink asked for it, run, then write the trace.
   EXPLAIN ANALYZE also turns on per-span allocation/GC accounting — that
   is the sink that displays it — so the annotated plan shows per-operator
   allocation next to wall time. *)
let with_telemetry ?trace ?(analyze = false) f =
  if trace <> None || analyze then T.set_enabled true;
  if analyze then T.set_alloc_enabled true;
  let r = f () in
  (match trace with
  | Some path ->
    let oc = open_out path in
    output_string oc (T.trace_json ());
    close_out oc;
    Printf.printf "wrote trace to %s\n" path
  | None -> ());
  r

(* One line per completed pipeline-phase span, in execution order. *)
let print_phases () =
  let phases = List.filter (fun s -> s.T.cat = "phase") (T.spans ()) in
  if phases <> [] then
    Printf.printf "phases: %s\n"
      (String.concat "  "
         (List.map
            (fun s -> Printf.sprintf "%s=%.3fms" s.T.name (T.ns_to_ms s.T.dur_ns))
            phases))

(* ---------------- show ---------------- *)

let show_cmd =
  let formalism_arg =
    let doc =
      "Diagram formalism: rd (relational diagram), qv (QueryVis), dfql, \
       qbe, beta, string, cg (conceptual graph)."
    in
    Arg.(value & opt string "rd" & info [ "f"; "formalism" ] ~docv:"F" ~doc)
  in
  let svg_arg =
    let doc = "Write SVG panels to $(docv) (basename; -1.svg, -2.svg, …)." in
    Arg.(value & opt (some string) None & info [ "o"; "svg" ] ~docv:"PATH" ~doc)
  in
  let run dbdir lang formalism svg query =
    handle_errors ~src:query @@ fun () ->
    let db = load_db dbdir in
    let q, r, verified = Diagres.Pipeline.run db lang query formalism in
    List.iteri
      (fun i ascii ->
        if r.Diagres.Pipeline.panel_count > 1 then
          Printf.printf "--- panel %d/%d ---\n" (i + 1) r.Diagres.Pipeline.panel_count;
        print_string ascii)
      r.Diagres.Pipeline.panels_ascii;
    (match svg with
    | Some base ->
      List.iteri
        (fun i doc ->
          let path =
            if r.Diagres.Pipeline.panel_count = 1 then base ^ ".svg"
            else Printf.sprintf "%s-%d.svg" base (i + 1)
          in
          let oc = open_out path in
          output_string oc doc;
          close_out oc;
          Printf.printf "wrote %s\n" path)
        r.Diagres.Pipeline.panels_svg
    | None -> ());
    Printf.printf "round-trip verified on sample db: %b\n" verified;
    ignore q
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Draw a query as a diagram")
    Term.(const run $ db_arg $ lang_arg $ formalism_arg $ svg_arg $ query_arg)

(* ---------------- translate ---------------- *)

let translate_cmd =
  let target_arg =
    let doc = "Target language: ra, trc, drc." in
    Arg.(value & opt string "trc" & info [ "t"; "to" ] ~docv:"LANG" ~doc)
  in
  let run dbdir lang target query =
    handle_errors ~src:query @@ fun () ->
    let db = load_db dbdir in
    let q = Diagres.Languages.parse (Diagres.Languages.of_name lang) query in
    print_endline
      (Diagres.Pipeline.translate_text db q (Diagres.Languages.of_name target))
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Translate a query between languages")
    Term.(const run $ db_arg $ lang_arg $ target_arg $ query_arg)

(* ---------------- eval ---------------- *)

let domains_arg =
  let doc =
    "Number of domains (OCaml worker threads) the parallel physical \
     operators may use; 1 reproduces the sequential engine exactly.  \
     Defaults to the DIAGRES_DOMAINS environment variable, else the \
     machine's recommended domain count."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let apply_domains = Option.iter Diagres_pool.Pool.set_size

let eval_cmd =
  let explain_arg =
    let doc =
      "Print the physical plan chosen by the cost-based planner (operators, \
       estimated and actual row counts), the domain count, and the \
       plan-cache hit/miss counters before the result.  Non-RA queries \
       are first translated to RA."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let analyze_arg =
    let doc =
      "EXPLAIN ANALYZE: enable telemetry, run the query, and print the \
       physical plan annotated with actual per-operator wall-clock times, \
       row counts next to the planner's estimates (nodes whose estimate \
       is off by more than 10x are flagged), hash-join build/probe split, \
       vectorized batch counts, and a per-phase timing summary."
    in
    Arg.(value & flag & info [ "analyze" ] ~doc)
  in
  let run dbdir lang explain analyze domains trace query =
    handle_errors ~src:query @@ fun () ->
    apply_domains domains;
    with_telemetry ?trace ~analyze @@ fun () ->
    let db = load_db dbdir in
    let q = Diagres.Languages.parse (Diagres.Languages.of_name lang) query in
    if explain || analyze then begin
      let ra = Diagres.Languages.to_ra (schemas_of db) q in
      let plan, cached = Diagres_ra.Plan_cache.find_or_plan db ra in
      let result, profile = Diagres_ra.Plan.run_profiled plan in
      (* memory gauges over the post-run state: relation storage and
         caches — also sampled onto the trace's counter tracks *)
      Diagres.Views.refresh_memory_gauges db;
      (* every operator line shows the run profile's actual counts *)
      print_string
        (if analyze then Diagres_ra.Plan.analyze profile plan
         else Diagres_ra.Plan.explain profile plan);
      Printf.printf "evaluated %d plan nodes, %d served from the shared-subtree memo\n"
        (Diagres_ra.Plan.total_evals profile)
        (Diagres_ra.Plan.total_hits profile);
      let hits, misses = Diagres_ra.Plan_cache.stats () in
      Printf.printf "domains: %d   plan cache: %s (hits=%d misses=%d)\n"
        (Diagres_pool.Pool.size ())
        (if cached then "hit" else "miss")
        hits misses;
      if analyze then begin
        print_phases ();
        Printf.printf "peak rows resident: %d   memory: relations=%s caches=%s\n"
          (Diagres_ra.Plan.peak_rows_resident profile)
          (T.bytes_to_string
             (float_of_int (T.gauge_named "memory_bytes.relations")))
          (T.bytes_to_string
             (float_of_int
                (T.gauge_named "memory_bytes.index_cache"
                + T.gauge_named "memory_bytes.stats_cache")))
      end;
      print_newline ();
      print_string (Diagres_data.Relation.to_string result)
    end
    else begin
      let r = Diagres.Languages.eval db q in
      if trace <> None then Diagres.Views.refresh_memory_gauges db;
      print_string (Diagres_data.Relation.to_string r)
    end
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a query on the sample sailors database")
    Term.(
      const run $ db_arg $ lang_arg $ explain_arg $ analyze_arg $ domains_arg
      $ trace_arg $ query_arg)

(* ---------------- register / update ---------------- *)

let register_cmd =
  let formalism_arg =
    let doc =
      "Also render the view's diagram in this formalism (rd, qv, dfql, \
       qbe, beta, string, cg) — diagrams depend only on the query, so the \
       rendering is produced once at registration."
    in
    Arg.(
      value & opt (some string) None & info [ "f"; "formalism" ] ~docv:"F" ~doc)
  in
  let run dbdir lang formalism query =
    handle_errors ~src:query @@ fun () ->
    let db = load_db dbdir in
    let reg = Diagres.Views.create db in
    let f = Option.map Diagres.Pipeline.formalism_of_name formalism in
    let v =
      Diagres.Views.register ?formalism:f reg ~name:"view"
        ~lang:(Diagres.Languages.of_name lang)
        ~source:query
    in
    (match v.Diagres.Views.rendering with
    | Some r -> List.iter print_string r.Diagres.Pipeline.panels_ascii
    | None -> ());
    let result = Diagres.Views.result v in
    Printf.printf "registered view (%d rows maintained incrementally)\n"
      (Diagres_data.Relation.cardinality result);
    print_string (Diagres_data.Relation.to_string result)
  in
  Cmd.v
    (Cmd.info "register"
       ~doc:
         "Register a query as an incrementally maintained view: plan it, \
          materialize the result, and (optionally) render its diagram")
    Term.(const run $ db_arg $ lang_arg $ formalism_arg $ query_arg)

let update_cmd =
  let rounds_arg =
    let doc = "Number of update batches to apply." in
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let frac_arg =
    let doc = "Fraction of each touched relation deleted (and re-inserted) per batch." in
    Arg.(value & opt float 0.01 & info [ "frac" ] ~docv:"F" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the update stream." in
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let touch_arg =
    let doc =
      "Comma-separated relations to update each round (sailors schema)."
    in
    Arg.(value & opt string "Reserves" & info [ "touch" ] ~docv:"RELS" ~doc)
  in
  let run dbdir lang domains rounds frac seed touch query =
    handle_errors ~src:query @@ fun () ->
    apply_domains domains;
    let db = load_db dbdir in
    let reg = Diagres.Views.create db in
    let v =
      Diagres.Views.register reg ~name:"view"
        ~lang:(Diagres.Languages.of_name lang)
        ~source:query
    in
    Printf.printf "registered view: %d rows\n"
      (Diagres_data.Relation.cardinality (Diagres.Views.result v));
    let relations = String.split_on_char ',' touch in
    let r = Diagres_data.Generator.rng seed in
    let ms ns = Int64.to_float ns /. 1e6 in
    for round = 1 to rounds do
      let changes =
        Diagres_data.Generator.update_batch ~relations ~frac r
          (Diagres.Views.database reg)
      in
      let t0 = T.now_ns () in
      let stats = Diagres.Views.update reg changes in
      let t1 = T.now_ns () in
      (* the honest alternative: re-plan and re-run against the updated
         database (the stamp changed, so this never hits the view's plan) *)
      let recomputed =
        Diagres_ra.Eval.eval_planned (Diagres.Views.database reg)
          v.Diagres.Views.ra
      in
      let t2 = T.now_ns () in
      let agree =
        Diagres_data.Relation.same_rows recomputed (Diagres.Views.result v)
      in
      let s = List.hd stats in
      let maintain = ms (Int64.sub t1 t0)
      and recompute = ms (Int64.sub t2 t1) in
      Printf.printf
        "round %d: +%d/-%d view rows  maintain %.3f ms  recompute %.3f ms \
         (%.1fx)  agree=%b\n"
        round s.Diagres.Views.inserts s.Diagres.Views.deletes maintain
        recompute
        (recompute /. Float.max 1e-9 maintain)
        agree;
      if not agree then exit 5
    done
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Register a view, stream random insert/delete batches at it, and \
          report maintain-vs-recompute timings per round")
    Term.(
      const run $ db_arg $ lang_arg $ domains_arg $ rounds_arg $ frac_arg
      $ seed_arg $ touch_arg $ query_arg)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let queries_arg =
    let doc =
      "Queries to evaluate (in the language chosen with $(b,-l)) before \
       dumping the metrics registry.  With no queries the five catalog \
       queries are evaluated in their SQL form."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  let json_arg =
    let doc = "Dump the metrics registry as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run dbdir lang domains json trace queries =
    handle_errors @@ fun () ->
    apply_domains domains;
    with_telemetry ?trace @@ fun () ->
    let db = load_db dbdir in
    let lang, queries =
      match queries with
      | [] -> ("sql", List.map (fun e -> e.Diagres.Catalog.sql) Diagres.Catalog.all)
      | qs -> (lang, qs)
    in
    let l = Diagres.Languages.of_name lang in
    List.iter
      (fun qtext ->
        let r = Diagres.Languages.eval db (Diagres.Languages.parse l qtext) in
        if not json then
          Printf.printf "-- %s  (%d rows)\n" qtext
            (Diagres_data.Relation.cardinality r))
      queries;
    (* memory gauges: on the built-in database, register one maintained
       view first so [memory_bytes.delta_state] reflects live differential
       state; a user-supplied --db gets storage/cache accounting only (the
       catalog probe query would not typecheck against its schema) *)
    (match dbdir with
    | None ->
      let reg = Diagres.Views.create db in
      ignore
        (Diagres.Views.register reg ~name:"stats-probe"
           ~lang:(Diagres.Languages.of_name "sql")
           ~source:(List.hd Diagres.Catalog.all).Diagres.Catalog.sql);
      Diagres.Views.refresh_gauges reg
    | Some _ -> Diagres.Views.refresh_memory_gauges db);
    if json then print_endline (T.metrics_json ())
    else begin
      if queries <> [] then print_newline ();
      print_string (T.metrics_to_string ())
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Evaluate queries and dump the engine metrics registry (cache \
          hit/miss counters, pool utilization, histograms)")
    Term.(
      const run $ db_arg $ lang_arg $ domains_arg $ json_arg $ trace_arg
      $ queries_arg)

(* ---------------- catalog ---------------- *)

let catalog_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "== %s: %s ==\n" e.Diagres.Catalog.id
          e.Diagres.Catalog.description;
        Printf.printf "SQL:     %s\n" e.Diagres.Catalog.sql;
        Printf.printf "RA:      %s\n" e.Diagres.Catalog.ra;
        Printf.printf "TRC:     %s\n" e.Diagres.Catalog.trc;
        Printf.printf "DRC:     %s\n" e.Diagres.Catalog.drc;
        Printf.printf "Datalog: %s\n\n" e.Diagres.Catalog.datalog)
      Diagres.Catalog.all
  in
  Cmd.v
    (Cmd.info "catalog" ~doc:"Print the tutorial's five queries in all languages")
    Term.(const run $ const ())

(* ---------------- survey ---------------- *)

let survey_cmd =
  let run () = print_string (Diagres.Survey.to_table ()) in
  Cmd.v
    (Cmd.info "survey" ~doc:"Print the visual-query-system capability matrix")
    Term.(const run $ const ())

(* ---------------- principles ---------------- *)

let principles_cmd =
  let run dbdir lang query =
    handle_errors ~src:query @@ fun () ->
    let schemas = schemas_of (load_db dbdir) in
    let q = Diagres.Languages.parse (Diagres.Languages.of_name lang) query in
    match Diagres.Languages.to_trc_panels schemas q with
    | [] ->
      Diagres_diag.Diag.error ~code:"E-VIZ-004" ~phase:Diagres_diag.Diag.Type
        "query produced no TRC panels"
    | panel :: _ as panels ->
      if List.length panels > 1 then
        Printf.printf "(%d panels; checking the first)\n" (List.length panels);
      print_endline
        (Diagres.Principles.verdict_to_string
           (Diagres.Principles.invertibility_rd panel));
      let rd = Diagres_diagrams.Relational_diagram.of_trc panel in
      let scene =
        (List.hd rd.Diagres_diagrams.Relational_diagram.panels)
          .Diagres_diagrams.Relational_diagram.scene
      in
      print_endline
        (Diagres.Principles.verdict_to_string (Diagres.Principles.economy scene));
      Printf.printf "pattern: %s\n"
        (Diagres.Pattern.canonical_string `Literal panel);
      let c = Diagres.Pattern.complexity panel in
      Printf.printf
        "complexity: %d variables, %d predicates, negation depth %d\n"
        c.Diagres.Pattern.variables c.Diagres.Pattern.predicates
        c.Diagres.Pattern.negation_depth;
      Printf.printf "line roles: %s\n"
        (Diagres_diagrams.Line_abuse.report_to_string
           (Diagres_diagrams.Line_abuse.of_scene scene))
  in
  Cmd.v
    (Cmd.info "principles"
       ~doc:"Check the query-visualization principles on a query")
    Term.(const run $ db_arg $ lang_arg $ query_arg)

(* ---------------- syllogisms ---------------- *)

let syllogisms_cmd =
  let run () =
    let valid =
      List.filter Diagres_diagrams.Syllogism.valid_venn
        Diagres_diagrams.Syllogism.all_moods
    in
    Printf.printf "valid moods (no existential import): %d\n" (List.length valid);
    List.iter
      (fun m ->
        let name =
          List.find_map
            (fun (n, m') ->
              if m' = m then Some n else None)
            Diagres_diagrams.Syllogism.valid_modern
        in
        Printf.printf "  %s%s\n"
          (Diagres_diagrams.Syllogism.mood_to_string m)
          (match name with Some n -> " (" ^ n ^ ")" | None -> ""))
      valid
  in
  Cmd.v
    (Cmd.info "syllogisms" ~doc:"Decide all 256 syllogistic moods with Venn region algebra")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "qviz" ~version:"1.0.0"
       ~doc:"Diagrammatic representations of relational queries")
    [ show_cmd; translate_cmd; eval_cmd; register_cmd; update_cmd; stats_cmd;
      catalog_cmd; survey_cmd; principles_cmd; syllogisms_cmd ]

let () = exit (Cmd.eval main)
