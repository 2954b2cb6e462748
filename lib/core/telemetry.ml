(** End-to-end engine telemetry: hierarchical spans, counters, histograms.

    Every layer of the engine — the language frontends, the cost-based
    planner, the physical operators, the domain pool, and the caches —
    reports into this one module, and three sinks read it back out:
    [qviz eval --analyze] (the plan tree annotated with actual per-operator
    times), [qviz … --trace-json FILE] (Chrome trace-event JSON, loadable
    in Perfetto or [chrome://tracing]), and [qviz stats] / [bench --json]
    (the metrics registry).

    Design constraints, in order:

    - {b near-zero overhead when disabled} — tracing is off by default;
      {!start} is a single [Atomic.get] and returns the unallocated
      {!null_span} when disabled, so instrumented hot loops pay one flag
      check and nothing else.  Counters and histograms are {e always}
      active (they are how the plan-cache and index-cache statistics
      accumulate): a counter bump is one [Atomic.fetch_and_add] on an
      interned slot, no allocation.
    - {b safe under the domain pool} — span events are appended to
      {e per-domain} buffers (a [Domain.DLS] slot registered in a global
      list on first use), so parallel batches never interleave or race;
      buffers are merged only by the read-side sinks.  Because execution
      within one domain is sequential, each buffer is a well-nested
      begin/end sequence in timestamp order — exactly what the Chrome
      trace format wants per thread.
    - {b monotonic clock} — timestamps come from the same
      [clock_gettime(CLOCK_MONOTONIC)] stub the benchmark harness uses
      ([bechamel.monotonic_clock]), so bench and production share one
      clock path.

    Spans must be finished on the domain that started them (all the
    instrumentation in this library starts and finishes a span inside one
    function activation, so this holds by construction). *)

(* ---------------- clock ---------------- *)

(** Monotonic nanoseconds. *)
let now_ns () : int64 = Monotonic_clock.now ()

let ns_to_ms ns = Int64.to_float ns /. 1e6
let ns_to_s ns = Int64.to_float ns /. 1e9

(** Human-readable byte count ("512B", "1.5KB", "23.4MB", "1.2GB") — the
    shared formatter for allocation deltas and memory gauges. *)
let bytes_to_string (b : float) : string =
  let ab = Float.abs b in
  if ab < 1024. then Printf.sprintf "%.0fB" b
  else if ab < 1024. *. 1024. then Printf.sprintf "%.1fKB" (b /. 1024.)
  else if ab < 1024. *. 1024. *. 1024. then
    Printf.sprintf "%.1fMB" (b /. (1024. *. 1024.))
  else Printf.sprintf "%.2fGB" (b /. (1024. *. 1024. *. 1024.))

(** [timed f] runs [f] and returns (wall-clock seconds, result) — the
    shared timing helper for the bench harness. *)
let timed (f : unit -> 'a) : float * 'a =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (ns_to_s (Int64.sub t1 t0), r)

(* ---------------- the enabled flags ---------------- *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Allocation/GC accounting is a second, independent opt-in on top of span
   tracing: reading [Gc.quick_stat] at every span boundary is cheap but not
   free, so resource deltas are only captured when both flags are on.  The
   disabled hot path is untouched — {!start} still performs exactly one
   [Atomic.get] before bailing out. *)
let alloc_flag = Atomic.make false
let alloc_enabled () = Atomic.get alloc_flag
let set_alloc_enabled b = Atomic.set alloc_flag b

(* ---------------- GC samples ---------------- *)

(** A point-in-time reading of the current domain's allocation and GC
    activity; spans store one at begin and one at end, and the read-side
    sinks subtract. *)
type gc_sample = {
  g_alloc : float;     (* Gc.allocated_bytes: cumulative bytes *)
  g_minor : int;       (* minor collections *)
  g_major : int;       (* major collections *)
  g_promoted : float;  (* words promoted minor->major *)
}

let read_gc () : gc_sample =
  let s = Gc.quick_stat () in
  { g_alloc = Gc.allocated_bytes ();
    g_minor = s.Gc.minor_collections;
    g_major = s.Gc.major_collections;
    g_promoted = s.Gc.promoted_words }

(** Allocation and GC activity between a span's begin and end, on the
    domain that ran it. *)
type alloc_delta = {
  alloc_bytes : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
}

let gc_delta (b : gc_sample) (e : gc_sample) : alloc_delta =
  { alloc_bytes = e.g_alloc -. b.g_alloc;
    minor_collections = e.g_minor - b.g_minor;
    major_collections = e.g_major - b.g_major;
    promoted_words = e.g_promoted -. b.g_promoted }

(* ---------------- attribute values ---------------- *)

type value = Int of int | Float of float | Str of string

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

(* ---------------- per-domain span buffers ---------------- *)

type event =
  | Begin of {
      id : int;
      parent : int;
      name : string;
      cat : string;
      ts : int64;
      gc : gc_sample option;  (* present iff alloc tracking was on *)
    }
  | End of {
      id : int;
      ts : int64;
      attrs : (string * value) list;
      gc : gc_sample option;
    }
  | Sample of { sname : string; ts : int64; v : float }
      (* a point on a counter track ("C" in the Chrome trace format):
         memory gauges, cumulative allocation, anything timeline-shaped *)

type domain_buf = {
  dom : int;                    (* Domain.self, the trace "tid" *)
  mutable events : event list;  (* newest first *)
  mutable stack : int list;     (* open span ids, innermost first *)
}

(* All buffers ever created, including those of retired pool domains; the
   mutex only guards registration (each domain then writes only its own
   buffer, and the sinks read after the parallel work has completed). *)
let bufs : domain_buf list ref = ref []
let bufs_mutex = Mutex.create ()

let buf_key : domain_buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom = (Domain.self () :> int); events = []; stack = [] }
      in
      Mutex.lock bufs_mutex;
      bufs := b :: !bufs;
      Mutex.unlock bufs_mutex;
      b)

let my_buf () = Domain.DLS.get buf_key

(** Drop every recorded span event (counters survive; see
    {!reset_metrics}). *)
let reset_spans () =
  Mutex.lock bufs_mutex;
  List.iter
    (fun b ->
      b.events <- [];
      b.stack <- [])
    !bufs;
  Mutex.unlock bufs_mutex

(* ---------------- spans ---------------- *)

type span = int  (* span id; 0 is the disabled no-op span *)

let null_span : span = 0
let span_ids = Atomic.make 1

(** Open a span.  Returns {!null_span} (no allocation, no clock read) when
    tracing is disabled.  The parent is the innermost span currently open
    on this domain. *)
let start ?(cat = "") (name : string) : span =
  if not (Atomic.get enabled_flag) then null_span
  else begin
    let b = my_buf () in
    let id = Atomic.fetch_and_add span_ids 1 in
    let parent = match b.stack with [] -> 0 | p :: _ -> p in
    let gc = if Atomic.get alloc_flag then Some (read_gc ()) else None in
    b.events <- Begin { id; parent; name; cat; ts = now_ns (); gc } :: b.events;
    b.stack <- id :: b.stack;
    id
  end

(** Close a span, attaching result attributes (row counts, sizes, …).
    A {!null_span} is ignored, so disabled-mode callers pay nothing. *)
let finish ?(attrs = []) (s : span) : unit =
  if s <> null_span then begin
    let b = my_buf () in
    let gc = if Atomic.get alloc_flag then Some (read_gc ()) else None in
    b.events <- End { id = s; ts = now_ns (); attrs; gc } :: b.events;
    (* pop this span (and, defensively, anything left open above it) *)
    let rec pop = function
      | x :: rest when x = s -> rest
      | _ :: rest -> pop rest
      | [] -> []
    in
    b.stack <- pop b.stack
  end

(** [with_span name f]: run [f] inside a span; the span closes even if [f]
    raises. *)
let with_span ?cat ?(attrs = fun () -> []) name f =
  let s = start ?cat name in
  if s = null_span then f ()
  else
    match f () with
    | v ->
      finish ~attrs:(attrs ()) s;
      v
    | exception e ->
      finish ~attrs:[ ("exception", Str (Printexc.to_string e)) ] s;
      raise e

(** Record one point on the counter track named [name] — rendered by the
    trace sink as a Chrome "C" event, so Perfetto draws a timeline (memory
    gauges, rows resident, …).  A no-op when tracing is disabled. *)
let sample (name : string) (v : float) : unit =
  if Atomic.get enabled_flag then begin
    let b = my_buf () in
    b.events <- Sample { sname = name; ts = now_ns (); v } :: b.events
  end

(* ---------------- completed-span view ---------------- *)

type span_info = {
  sid : int;
  parent : int;         (** 0 = root *)
  name : string;
  cat : string;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * value) list;
  alloc : alloc_delta option;
      (** allocation/GC activity inside the span; [None] unless alloc
          tracking ({!set_alloc_enabled}) was on for both endpoints *)
}

(** Every completed span, merged across domains, in start order.  Spans
    still open (or whose begin was dropped by {!reset_spans}) are
    omitted. *)
let spans () : span_info list =
  Mutex.lock bufs_mutex;
  let all = !bufs in
  Mutex.unlock bufs_mutex;
  let ends = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (function
          | End { id; ts; attrs; gc } -> Hashtbl.replace ends id (ts, attrs, gc)
          | Begin _ | Sample _ -> ())
        b.events)
    all;
  let infos =
    List.concat_map
      (fun b ->
        List.filter_map
          (function
            | Begin { id; parent; name; cat; ts; gc = gc0 } -> (
              match Hashtbl.find_opt ends id with
              | Some (ts_end, attrs, gc1) ->
                let alloc =
                  match (gc0, gc1) with
                  | Some g0, Some g1 -> Some (gc_delta g0 g1)
                  | _ -> None
                in
                Some
                  { sid = id; parent; name; cat; domain = b.dom;
                    start_ns = ts; dur_ns = Int64.sub ts_end ts; attrs;
                    alloc }
              | None -> None)
            | End _ | Sample _ -> None)
          (List.rev b.events))
      all
  in
  List.sort (fun a b -> compare (a.start_ns, a.sid) (b.start_ns, b.sid)) infos

(** Total duration of completed spans named [name] (e.g. a pipeline
    phase), in nanoseconds. *)
let total_ns ~name () =
  List.fold_left
    (fun acc s -> if s.name = name then Int64.add acc s.dur_ns else acc)
    0L (spans ())

(* ---------------- counters ---------------- *)

type counter = { cname : string; cell : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let metrics_mutex = Mutex.create ()  (* guards the two registries *)

(** Intern the counter named [name]: the same slot is returned for the
    same name forever, so callers hoist the lookup out of their hot
    loops and bump with a single atomic add. *)
let counter (name : string) : counter =
  Mutex.lock metrics_mutex;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { cname = name; cell = Atomic.make 0 } in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock metrics_mutex;
  c

let add (c : counter) n = ignore (Atomic.fetch_and_add c.cell n)
let incr (c : counter) = add c 1
let counter_value (c : counter) = Atomic.get c.cell
let set_counter (c : counter) v = Atomic.set c.cell v

(** Current value of the counter named [name] (0 if never created). *)
let counter_named name =
  Mutex.lock metrics_mutex;
  let v =
    match Hashtbl.find_opt counters name with
    | Some c -> Atomic.get c.cell
    | None -> 0
  in
  Mutex.unlock metrics_mutex;
  v

(* ---------------- gauges ---------------- *)

(* A gauge is a point-in-time level, not a monotone count: bytes resident,
   entries cached, rows live.  Same interned-atomic-slot design as counters
   (always on, one atomic op to update), but the registry reports it as a
   level and the sinks label it as such. *)

type gauge = { gname : string; gcell : int Atomic.t }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

(** Intern the gauge named [name] (same slot for the same name forever). *)
let gauge (name : string) : gauge =
  Mutex.lock metrics_mutex;
  let g =
    match Hashtbl.find_opt gauges name with
    | Some g -> g
    | None ->
      let g = { gname = name; gcell = Atomic.make 0 } in
      Hashtbl.add gauges name g;
      g
  in
  Mutex.unlock metrics_mutex;
  g

let set_gauge (g : gauge) v = Atomic.set g.gcell v
let add_gauge (g : gauge) n = ignore (Atomic.fetch_and_add g.gcell n)
let gauge_value (g : gauge) = Atomic.get g.gcell

(** Current value of the gauge named [name] (0 if never created). *)
let gauge_named name =
  Mutex.lock metrics_mutex;
  let v =
    match Hashtbl.find_opt gauges name with
    | Some g -> Atomic.get g.gcell
    | None -> 0
  in
  Mutex.unlock metrics_mutex;
  v

(** Emit every registered gauge as a point on its counter track (a no-op
    when tracing is disabled) — call at phase boundaries to give the trace
    a memory timeline. *)
let sample_all_gauges () =
  if Atomic.get enabled_flag then begin
    Mutex.lock metrics_mutex;
    let gs = Hashtbl.fold (fun _ g acc -> g :: acc) gauges [] in
    Mutex.unlock metrics_mutex;
    List.iter (fun g -> sample g.gname (float_of_int (Atomic.get g.gcell))) gs
  end

(* ---------------- histograms ---------------- *)

(* Geometric buckets: bucket [i] counts observations in (2^(i-1), 2^i]
   (bucket 0 counts x <= 1).  31 buckets cover anything up to 2^30 —
   nanoseconds to seconds, tuple counts to gigatuples. *)
let histogram_buckets = 31

type histogram = {
  hname : string;
  hmutex : Mutex.t;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram (name : string) : histogram =
  Mutex.lock metrics_mutex;
  let h =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
      let h =
        { hname = name; hmutex = Mutex.create ();
          buckets = Array.make histogram_buckets 0; count = 0; sum = 0.;
          minv = infinity; maxv = neg_infinity }
      in
      Hashtbl.add histograms name h;
      h
  in
  Mutex.unlock metrics_mutex;
  h

let bucket_of (x : float) =
  if x <= 1. then 0
  else
    let rec go i bound =
      if i >= histogram_buckets - 1 || x <= bound then i
      else go (i + 1) (bound *. 2.)
    in
    go 1 2.

let observe (h : histogram) (x : float) =
  Mutex.lock h.hmutex;
  h.buckets.(bucket_of x) <- h.buckets.(bucket_of x) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. x;
  if x < h.minv then h.minv <- x;
  if x > h.maxv then h.maxv <- x;
  Mutex.unlock h.hmutex

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  mean : float; (** [nan] when empty *)
  bucket_counts : int array;  (** bucket [i] = observations in (2^(i-1), 2^i] *)
}

let snapshot (h : histogram) : histogram_snapshot =
  Mutex.lock h.hmutex;
  let s =
    { count = h.count; sum = h.sum;
      min = (if h.count = 0 then nan else h.minv);
      max = (if h.count = 0 then nan else h.maxv);
      mean = (if h.count = 0 then nan else h.sum /. float_of_int h.count);
      bucket_counts = Array.copy h.buckets }
  in
  Mutex.unlock h.hmutex;
  s

(* ---------------- the metrics registry ---------------- *)

type metric =
  | Counter of string * int
  | Gauge of string * int
  | Histogram of string * histogram_snapshot

let metric_name = function
  | Counter (n, _) | Gauge (n, _) | Histogram (n, _) -> n

(** Snapshot of every counter, gauge, and histogram, sorted by name. *)
let metrics () : metric list =
  Mutex.lock metrics_mutex;
  let cs =
    Hashtbl.fold
      (fun _ c acc -> Counter (c.cname, Atomic.get c.cell) :: acc)
      counters []
  in
  let gs =
    Hashtbl.fold
      (fun _ g acc -> Gauge (g.gname, Atomic.get g.gcell) :: acc)
      gauges []
  in
  let hs =
    Hashtbl.fold (fun _ h acc -> (h.hname, h) :: acc) histograms []
  in
  Mutex.unlock metrics_mutex;
  let hs = List.map (fun (n, h) -> Histogram (n, snapshot h)) hs in
  List.sort
    (fun a b -> compare (metric_name a) (metric_name b))
    (cs @ gs @ hs)

(** Zero every counter, gauge, and histogram (the slots themselves survive,
    so interned handles stay valid). *)
let reset_metrics () =
  Mutex.lock metrics_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g.gcell 0) gauges;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.hmutex;
      Array.fill h.buckets 0 histogram_buckets 0;
      h.count <- 0;
      h.sum <- 0.;
      h.minv <- infinity;
      h.maxv <- neg_infinity;
      Mutex.unlock h.hmutex)
    histograms;
  Mutex.unlock metrics_mutex

(** Reset everything: spans and metrics. *)
let reset () =
  reset_spans ();
  reset_metrics ()

(* ---------------- sinks ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let value_to_json = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_finite f then Printf.sprintf "%.6g" f
    else Printf.sprintf "\"%s\"" (json_escape (Printf.sprintf "%g" f))
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)

let attrs_to_json attrs =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": %s" (json_escape k) (value_to_json v))
         attrs)
  ^ "}"

(** The recorded spans as Chrome trace-event JSON (the [chrome://tracing] /
    Perfetto format): "M" metadata events naming the process and each
    domain's track first, then one "B" and one "E" event per span ([tid] =
    the domain the span ran on) interleaved with "C" counter-track points
    for recorded {!sample}s and, when alloc tracking was on, the cumulative
    allocation timeline.  Per-buffer recording order is emission order,
    which the format requires to be the per-thread timestamp order — true
    here because each domain's execution is sequential. *)
let trace_json () : string =
  Mutex.lock bufs_mutex;
  let all = !bufs in
  Mutex.unlock bufs_mutex;
  let names = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (function
          | Begin { id; name; cat; gc; _ } ->
            Hashtbl.replace names id (name, cat, gc)
          | End _ | Sample _ -> ())
        b.events)
    all;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  let us ts = Int64.to_float ts /. 1e3 in
  (* metadata first: the process track, then one thread label per domain
     buffer so Perfetto shows "domain-N" instead of a bare tid *)
  emit
    "  {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \"args\": \
     {\"name\": \"diagres\"}}";
  List.iter
    (fun b ->
      emit
        (Printf.sprintf
           "  {\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \
            \"thread_name\", \"args\": {\"name\": \"domain-%d\"}}"
           b.dom b.dom))
    (List.sort (fun a b -> compare a.dom b.dom) all);
  (* only emit spans that completed, so every B has a matching E *)
  let completed = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (function
          | End { id; _ } -> Hashtbl.replace completed id ()
          | Begin _ | Sample _ -> ())
        b.events)
    all;
  List.iter
    (fun b ->
      List.iter
        (fun ev ->
          match ev with
          | Begin { id; name; cat; ts; parent; gc = _ }
            when Hashtbl.mem completed id ->
            emit
              (Printf.sprintf
                 "  {\"ph\": \"B\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
                  \"name\": \"%s\", \"cat\": \"%s\", \"args\": {\"span_id\": \
                  %d, \"parent_id\": %d}}"
                 b.dom (us ts) (json_escape name)
                 (json_escape (if cat = "" then "default" else cat))
                 id parent)
          | End { id; ts; attrs; gc } when Hashtbl.mem names id ->
            let name, cat, gc0 = Hashtbl.find names id in
            let attrs =
              match (gc0, gc) with
              | Some g0, Some g1 ->
                let d = gc_delta g0 g1 in
                attrs
                @ [ ("alloc_bytes", Float d.alloc_bytes);
                    ("minor_gcs", Int d.minor_collections);
                    ("major_gcs", Int d.major_collections);
                    ("promoted_words", Float d.promoted_words) ]
              | _ -> attrs
            in
            emit
              (Printf.sprintf
                 "  {\"ph\": \"E\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
                  \"name\": \"%s\", \"cat\": \"%s\", \"args\": %s}"
                 b.dom (us ts) (json_escape name)
                 (json_escape (if cat = "" then "default" else cat))
                 (attrs_to_json attrs));
            (* alloc mode also gives the trace a per-domain memory
               timeline: cumulative allocated bytes as a counter track *)
            (match gc with
            | Some g ->
              emit
                (Printf.sprintf
                   "  {\"ph\": \"C\", \"pid\": 1, \"tid\": %d, \"ts\": \
                    %.3f, \"name\": \"gc.allocated_bytes\", \"args\": \
                    {\"bytes\": %.0f}}"
                   b.dom (us ts) g.g_alloc)
            | None -> ())
          | Sample { sname; ts; v } ->
            emit
              (Printf.sprintf
                 "  {\"ph\": \"C\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
                  \"name\": \"%s\", \"args\": {\"value\": %s}}"
                 b.dom (us ts) (json_escape sname)
                 (value_to_json (Float v)))
          | Begin _ | End _ -> ())
        (List.rev b.events))
    all;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(** The metrics registry as a JSON object:
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)
let metrics_json () : string =
  let ms = metrics () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"counters\": {";
  let first = ref true in
  List.iter
    (function
      | Counter (n, v) ->
        if not !first then Buffer.add_string buf ", ";
        first := false;
        Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape n) v)
      | Gauge _ | Histogram _ -> ())
    ms;
  Buffer.add_string buf "}, \"gauges\": {";
  first := true;
  List.iter
    (function
      | Gauge (n, v) ->
        if not !first then Buffer.add_string buf ", ";
        first := false;
        Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape n) v)
      | Counter _ | Histogram _ -> ())
    ms;
  Buffer.add_string buf "}, \"histograms\": {";
  first := true;
  List.iter
    (function
      | Histogram (n, s) ->
        if not !first then Buffer.add_string buf ", ";
        first := false;
        Buffer.add_string buf
          (Printf.sprintf
             "\"%s\": {\"count\": %d, \"sum\": %.6g, \"mean\": %s, \"min\": \
              %s, \"max\": %s}"
             (json_escape n) s.count s.sum
             (value_to_json (Float s.mean))
             (value_to_json (Float s.min))
             (value_to_json (Float s.max)))
      | Counter _ | Gauge _ -> ())
    ms;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(** Human-readable metrics dump (the [qviz stats] sink). *)
let metrics_to_string () : string =
  let ms = metrics () in
  if ms = [] then "(no metrics recorded)\n"
  else
    let buf = Buffer.create 1024 in
    List.iter
      (function
        | Counter (n, v) -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" n v)
        | Gauge (n, v) ->
          Buffer.add_string buf (Printf.sprintf "%-40s %d (gauge)\n" n v)
        | Histogram (n, s) ->
          Buffer.add_string buf
            (if s.count = 0 then Printf.sprintf "%-40s count=0\n" n
             else
               Printf.sprintf
                 "%-40s count=%d mean=%.1f min=%.0f max=%.0f\n" n s.count
                 s.mean s.min s.max))
      ms;
    Buffer.contents buf
