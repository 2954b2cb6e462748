(* The repository benchmark.

     main.exe --workload interactive|analytic|maintain|all --seed N
              --seconds S --trace 0|1

   With --trace 0 it prints every end-to-end metric; with --trace 1 it makes
   a separate traced run and prints the per-layer metrics.  The last line of
   standard output is one JSON object: correct, attempted, failed, metrics.
   Exits non-zero on any wrong answer.  NOTES.md documents the workloads,
   the metrics and the layer map. *)

module D = Diagres_data
module L = Diagres.Languages
module C = Diagres.Catalog
module G = D.Generator
module W = Workloads
module S = Summary

let state_dir = ".perfbench_state"

(* ---------------- steadiness controls ---------------- *)

(* Execution knobs are read once at start-up; a set one would measure
   another engine, so it is cleared back to its default and recorded. *)
let clear_knobs () =
  let knobs = [ "DIAGRES_DOMAINS"; "DIAGRES_COLUMNAR"; "DIAGRES_DEFER" ] in
  let set = List.filter_map (fun k -> Option.map (fun v -> k ^ "=" ^ v) (Sys.getenv_opt k)) knobs in
  Diagres_ra.Plan.columnar_enabled := true;
  Diagres_ra.Plan.defer_gathers := true;
  Diagres_pool.Pool.set_size 1;
  set

(* ---------------- cross-run answer checksums ---------------- *)

(* Every request's answer checksum is kept per (workload, seed); a later run
   of the same seed must reproduce the checksums of the requests both runs
   made. *)
let compare_sums acc w ~seed =
  let path = Filename.concat state_dir (Printf.sprintf "%s-%d.sums" (W.name w) seed) in
  let earlier = Hashtbl.create 1024 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         Scanf.sscanf (input_line ic) "%d %s" (fun id s -> Hashtbl.replace earlier id s)
       done
     with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
    close_in ic
  end;
  let differ = ref 0 in
  Hashtbl.iter
    (fun id s ->
      match Hashtbl.find_opt earlier id with
      | Some s' when s' <> s -> incr differ
      | _ -> Hashtbl.replace earlier id s)
    W.sums;
  if !differ > 0 then
    W.wrong acc (Printf.sprintf "%d answer checksums differ from an earlier run of seed %d" !differ seed);
  let oc = open_out path in
  Hashtbl.iter (fun id s -> Printf.fprintf oc "%d %s\n" id s) earlier;
  close_out oc

(* ---------------- one workload in one worker ---------------- *)

type outcome = {
  acc : W.acc;  (** the measured passes, or the traced pass *)
  untraced : W.acc option;  (** the traced run's untraced pass *)
  setups : W.setup list;
  gc : Gc.stat * Gc.stat;  (** around the traced pass *)
  pass_s : float list;  (** wall time of each pass *)
}

let catalog_expected acc db expected =
  List.iter
    (fun (e : C.entry) ->
      Hashtbl.replace expected e.C.id
        (W.naive acc ("catalog " ^ e.C.id) db (Diagres_ra.Parser.parse e.C.ra)))
    C.all

(* [pass acc ~traced i] makes set-up [i] and one pass over the stream into
   [acc], and returns the set-up's times.  A measured run makes
   [W.passes] passes into one accumulator; the traced run makes one
   untraced and one traced pass, each into its own. *)
let run_passes ~trace pass =
  let gc = ref (Gc.quick_stat (), Gc.quick_stat ()) and pass_s = ref [] in
  let window ~traced f =
    Trace.on := traced;
    let g0 = Gc.quick_stat () and t0 = Unix.gettimeofday () in
    f ();
    pass_s := (Unix.gettimeofday () -. t0) :: !pass_s;
    gc := (g0, Gc.quick_stat ());
    Trace.on := false
  in
  let pass acc ~traced i = pass acc ~traced i ~window:(window ~traced) in
  if not trace then
    let acc = W.new_acc () in
    let setups = List.init W.passes (fun i -> pass acc ~traced:false i) in
    { acc; untraced = None; setups; gc = !gc; pass_s = List.rev !pass_s }
  else begin
    let untraced = W.new_acc () in
    let s0 = pass untraced ~traced:false 0 in
    let acc = W.new_acc () in
    let s1 = pass acc ~traced:true 1 in
    acc.W.wrong <- acc.W.wrong @ untraced.W.wrong;
    { acc; untraced = Some untraced; setups = [ s0; s1 ]; gc = !gc; pass_s = List.rev !pass_s }
  end

let run_reads w ~seed ~seconds ~trace =
  let n = W.rotations w ~seconds in
  let expected = Hashtbl.create 8 in
  let check = W.new_acc () in
  let pass acc ~traced:_ i ~window =
    Hashtbl.reset acc.W.seen;
    let ctx, setup = W.read_setup w ~expected in
    if i = 0 then catalog_expected check ctx.W.db expected;
    Gc.compact ();
    let stream =
      Stream.make ~seed ~schemas:ctx.W.schemas ~formalisms:(W.formalisms w)
        ~fresh:(W.fresh_per_catalog w)
    in
    let cycle = Stream.cycle stream in
    let writes = W.write_chain ctx ~n:cycle in
    window (fun () ->
        for _ = 1 to n do
          for _ = 1 to cycle do W.request acc ctx ~check:true (Stream.next stream) done;
          for _ = 1 to W.write_replays w do writes acc done
        done);
    setup
  in
  let o = run_passes ~trace pass in
  o.acc.W.unchecked <- o.acc.W.unchecked + check.W.unchecked;
  o

let run_maintain ~seed ~seconds ~trace =
  let n = W.rotations W.Maintain ~seconds in
  let last = ref None in
  let pass acc ~traced _ ~window =
    Hashtbl.reset acc.W.seen;
    last := None;
    let m, setup = W.maintain_setup acc ~seed ~trace:traced in
    Gc.compact ();
    window (fun () -> for _ = 1 to n do W.maintain_step acc m ~check:true done);
    last := Some m;
    setup
  in
  let o = run_passes ~trace pass in
  W.check_views o.acc (Option.get !last);
  o

(* ---------------- metrics ---------------- *)

let reads (a : W.acc) =
  Hashtbl.fold
    (fun _ (o : W.op) l -> match o.W.kind with W.Read (lang, _) -> (lang, o.W.ms) :: l | _ -> l)
    a.W.ops []

let writes (a : W.acc) =
  Hashtbl.fold (fun _ (o : W.op) l -> if o.W.kind = W.Write then o.W.ms :: l else l) a.W.ops []

let end_to_end o ~rss =
  let acc = o.acc in
  let lat = List.map snd (reads acc) in
  let by_lang l = S.geomean (List.filter_map (fun (l', ms) -> if l' = l then Some ms else None) (reads acc)) in
  let _, _, lat_tail = S.tail lat in
  let _, _, upd_tail = S.tail (writes acc) in
  let busy_s = Hashtbl.fold (fun _ (op : W.op) s -> s +. (op.W.ms /. 1e3)) acc.W.ops 0. in
  S.
    [ m "setup_s" "s" (median (List.map W.total o.setups));
      m "throughput_rps" "1/s" (float_of_int (Hashtbl.length acc.W.ops) /. busy_s);
      m "latency_p50_ms" "ms" (median lat);
      m "latency_tail_ms" "ms" lat_tail;
      m "latency_geomean_ms" "ms" (geomean lat);
      m "lang.sql_ms" "ms" (by_lang L.Sql);
      m "lang.ra_ms" "ms" (by_lang L.Ra);
      m "lang.trc_ms" "ms" (by_lang L.Trc);
      m "lang.drc_ms" "ms" (by_lang L.Drc);
      m "lang.datalog_ms" "ms" (by_lang L.Datalog);
      m "update_p50_ms" "ms" (median (writes acc));
      m "update_tail_ms" "ms" upd_tail;
      m "peak_rss_mb" "MB" rss;
      m "failed_share" "share" (float_of_int acc.W.failed /. float_of_int (max 1 acc.W.attempted)) ]

(* The traced run's own overhead: the geometric mean, over the operations
   both passes completed, of traced over untraced time, minus one. *)
let overhead (traced : W.acc) (untraced : W.acc) =
  let ratios =
    Hashtbl.fold
      (fun k (o : W.op) l ->
        match Hashtbl.find_opt untraced.W.ops k with
        | Some u -> (o.W.ms /. u.W.ms) :: l
        | None -> l)
      traced.W.ops []
  in
  S.geomean ratios -. 1.

let per_layer o =
  let acc = o.acc in
  let agg n = Hashtbl.find_opt Trace.aggs n in
  let per_call f n =
    match agg n with Some a when a.Trace.calls > 0 -> f a /. float_of_int a.Trace.calls | _ -> 0.
  in
  let ms n = per_call (fun a -> a.Trace.incl_ns /. 1e6) n in
  let kb n = per_call (fun a -> a.Trace.alloc_w *. 8. /. 1024.) n in
  let root_aggs = List.filter_map agg [ "request"; "write"; "snapshot"; "register" ] in
  let root_ns = List.fold_left (fun s a -> s +. a.Trace.incl_ns) 0. root_aggs in
  let share n = match agg n with Some a when root_ns > 0. -> a.Trace.self_ns /. root_ns | _ -> 0. in
  let delta c = List.fold_left (fun s a -> s + Trace.counter_delta a c) 0 root_aggs in
  let ratio hit miss =
    let h = delta hit and mi = delta miss in
    if h + mi = 0 then 0. else float_of_int h /. float_of_int (h + mi)
  in
  let g0, g1 = o.gc in
  (* per operation of the traced pass, a replayed write counted once *)
  let kreq = float_of_int (max 1 acc.W.attempted) /. 1000. in
  (* the untraced pass's set-up: the traced one traces registration *)
  let setup f = f (List.hd o.setups) in
  let overhead = match o.untraced with Some u -> overhead acc u | None -> 0. in
  let langs = List.map Stream.lang_tag L.all in
  S.(
    [ m "parse.ms" "ms" (ms "parse"); m "parse.share" "share" (share "parse");
      m "parse.alloc_kb" "KB" (kb "parse");
      m "translate.ms" "ms" (ms "translate"); m "translate.share" "share" (share "translate");
      m "visualize.ms" "ms" (ms "visualize"); m "visualize.share" "share" (share "visualize") ]
    @ List.map (fun f -> m ("visualize." ^ f ^ ".ms") "ms" (ms ("visualize." ^ f)))
        [ "rd"; "qv"; "dfql"; "cg"; "qbe" ]
    @ [ m "visualize.alloc_kb" "KB" (kb "visualize");
        m "verify.ms" "ms" (ms "verify"); m "verify.share" "share" (share "verify");
        m "eval.ms" "ms" (ms "eval"); m "eval.share" "share" (share "eval") ]
    @ List.map (fun l -> m ("eval." ^ l ^ ".ms") "ms" (ms ("eval." ^ l))) langs
    @ [ m "eval.alloc_kb" "KB" (kb "eval");
        m "typecheck.ms" "ms" (ms "typecheck"); m "plan.ms" "ms" (ms "plan");
        m "plan_cache.hit_ratio" "share" (ratio "plan_cache.hit" "plan_cache.miss");
        m "plan_cache.evictions" "count" (float_of_int (delta "plan_cache.evictions"));
        m "execute.ms" "ms" (ms "execute");
        m "columnar.rows" "count" (float_of_int (delta "columnar.rows"));
        m "columnar.fallback_row_mode" "count" (float_of_int (delta "columnar.fallback_row_mode"));
        m "columnar.gathers_forced" "count" (float_of_int (delta "columnar.gathers_forced"));
        m "index.cache.hit_ratio" "share" (ratio "index.cache.hit" "index.cache.miss");
        m "stats.cache.hit_ratio" "share" (ratio "stats.cache.hit" "stats.cache.miss");
        m "apply_delta.ms" "ms" (ms "apply_delta");
        m "maintain.ms" "ms" (ms "maintain") ]
    @ List.map (fun l -> m ("maintain." ^ l ^ ".ms") "ms" (ms ("maintain." ^ l))) langs
    @ [ m "view.delta_rows" "count" (float_of_int (delta "view.delta_rows"));
        m "register.ms" "ms" (ms "register");
        m "snapshot.ms" "ms" (ms "snapshot");
        m "setup.build_s" "s" (setup (fun s -> s.W.build_s));
        m "setup.register_s" "s" (setup (fun s -> s.W.register_s));
        m "setup.warmup_s" "s" (setup (fun s -> s.W.warmup_s));
        m "gc.minor_per_kreq" "count"
          (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) /. kreq);
        m "gc.major_per_kreq" "count"
          (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. kreq);
        m "alloc_kb_per_req" "KB"
          (List.fold_left (fun s a -> s +. a.Trace.alloc_w) 0. root_aggs *. 8. /. 1024.
          /. (kreq *. 1000.));
        m "trace.overhead_share" "share" overhead ])

(* ---------------- report ---------------- *)

let report w ~seed ~seconds ~trace ~cleared o (metrics : S.metric list) =
  let acc = o.acc in
  let p = Printf.printf in
  p "== perfbench %s  seed %d  seconds %g  trace %d\n" (W.name w) seed seconds
    (if trace then 1 else 0);
  if cleared <> [] then p "cleared execution knobs: %s\n" (String.concat " " cleared);
  p "pool domains: %d; deadline per operation: %g s; operations known to miss it (in this run or an earlier one in this checkout): %d; slowest that finished: %.1f ms\n"
    (Diagres_pool.Pool.size ()) (W.deadline w) (Hashtbl.length Guard.missed)
    (W.ms_of_ns !Guard.slowest_ns);
  p "passes: %d, each after its own set-up, taking%s s; an operation's time is the fastest of its passes\n"
    (List.length o.setups)
    (String.concat "" (List.map (Printf.sprintf " %.1f") o.pass_s));
  p "attempted %d  failed %d  requests %d  repeat share %.3f\n" acc.W.attempted
    acc.W.failed acc.W.requests
    (float_of_int acc.W.repeats /. float_of_int (max 1 acc.W.requests));
  let lat = List.map snd (reads acc) and upd = writes acc in
  let tp, tb, _ = S.tail lat in
  let up, ub, _ = S.tail upd in
  p "latency tail: p%g of %d requests (%d beyond); update tail: p%g of %d writes (%d beyond)\n"
    tp (List.length lat) tb up (List.length upd) ub;
  p "failing operation classes:\n";
  Hashtbl.fold (fun k n l -> (k, n) :: l) acc.W.failures []
  |> List.sort compare
  |> List.iter (fun (k, n) -> p "  %5d  %s\n" n k);
  p "set-ups (build + register + warm-up, s):%s\n"
    (String.concat ""
       (List.map
          (fun s -> Printf.sprintf "  %.3f+%.3f+%.3f" s.W.build_s s.W.register_s s.W.warmup_s)
          o.setups));
  if acc.W.unchecked > 0 then p "answers not checked (reference missed the deadline): %d\n" acc.W.unchecked;
  if trace then begin
    p "traced run: spans recorded around each public call, written to %s\n"
      (Filename.concat state_dir (Printf.sprintf "trace-%s-%d.json" (W.name w) seed));
    List.iter
      (fun (layer, checked, bad) ->
        p "  allocation repeats exactly: %-10s %s (%d operations seen 3+ times)\n" layer
          (if bad = 0 then "yes" else Printf.sprintf "NO, %d differ" bad)
          checked)
      (Trace.alloc_repeat ())
  end;
  List.iter (fun (x : S.metric) -> p "  %-28s %14.6f %s\n" x.S.name x.S.value x.S.unit_) metrics;
  List.iter (fun msg -> p "WRONG: %s\n" msg) (List.rev acc.W.wrong)

let worker w ~seed ~seconds ~trace ~cleared () =
  Trace.reset ();
  let o =
    match w with
    | W.Maintain -> run_maintain ~seed ~seconds ~trace
    | _ -> run_reads w ~seed ~seconds ~trace
  in
  let rss = S.peak_rss_mb () in
  compare_sums o.acc w ~seed;
  if trace then
    Trace.write (Filename.concat state_dir (Printf.sprintf "trace-%s-%d.json" (W.name w) seed));
  let metrics = if trace then per_layer o else end_to_end o ~rss in
  report w ~seed ~seconds ~trace ~cleared o metrics;
  let acc = o.acc in
  let attempted, failed =
    match o.untraced with
    | Some u -> (acc.W.attempted + u.W.attempted, acc.W.failed + u.W.failed)
    | None -> (acc.W.attempted, acc.W.failed)
  in
  let correct = acc.W.wrong = [] in
  print_endline (S.result_line ~correct ~attempted ~failed metrics);
  if correct then 0 else 4

(* ---------------- command line ---------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload interactive|analytic|maintain|all --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: tl when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workloads =
    match get "workload" with
    | "interactive" -> [ W.Interactive ]
    | "analytic" -> [ W.Analytic ]
    | "maintain" -> [ W.Maintain ]
    | "all" -> [ W.Interactive; W.Analytic; W.Maintain ]
    | _ -> usage ()
  in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seed < 0 || seconds <= 0. then usage ();
  let cleared = clear_knobs () in
  (try Unix.mkdir state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let codes =
    List.map
      (fun w ->
        let state = Filename.concat state_dir (W.name w ^ ".missed") in
        Guard.supervise ~deadline:(W.deadline w) ~budget:170. ~max_restarts:12 ~state
          (worker w ~seed ~seconds ~trace ~cleared))
      workloads
  in
  exit (List.fold_left max 0 codes)
