(* The traced run's own spans.  Spans are recorded here, around the calls
   the benchmark makes into each layer's public functions; nothing inside
   the library is traced and Telemetry.set_enabled is never called (a
   traced engine forces deferred gathers, so it would be another engine).
   Counters come from the always-on Telemetry registry, read before and
   after each span.  Spans stay in memory until [write]. *)

module T = Diagres_telemetry.Telemetry

let on = ref false

type span = {
  name : string;
  tag : string;  (** formalism or language, "" if none *)
  id : int;
  parent : int;  (** 0 for a root *)
  req : int;
  t0 : int64;
  mutable t1 : int64;
}

let spans : span list ref = ref []
let next_id = ref 1
let stack : (span * float ref) list ref = ref []  (* open spans, child ns *)
let current_req = ref 0

(** Counters read around every span. *)
let counter_names =
  [ "plan_cache.hit"; "plan_cache.miss"; "plan_cache.evictions";
    "index.cache.hit"; "index.cache.miss"; "stats.cache.hit";
    "stats.cache.miss"; "columnar.rows"; "columnar.fallback_row_mode";
    "columnar.gathers_forced"; "view.delta_rows" ]

let counters = Array.of_list (List.map T.counter counter_names)
let read_counters () = Array.map T.counter_value counters

(* Words allocated on this domain's minor heap: exact at any point, unlike
   [Gc.counters] and [Gc.quick_stat], which lag until the next collection.
   Blocks over 256 words go straight to the major heap and are not
   counted. *)
let alloc_words () = Gc.minor_words ()

type agg = {
  mutable calls : int;
  mutable incl_ns : float;
  mutable self_ns : float;
  mutable alloc_w : float;
  deltas : int array;
}

(* per layer name, and per "name.tag" *)
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

(* allocation per (layer, operation key): for the repeat check *)
let allocs : (string * string, float list) Hashtbl.t = Hashtbl.create 256

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a =
      { calls = 0; incl_ns = 0.; self_ns = 0.; alloc_w = 0.;
        deltas = Array.make (Array.length counters) 0 }
    in
    Hashtbl.add aggs name a;
    a

let reset () =
  spans := [];
  stack := [];
  Hashtbl.reset aggs;
  Hashtbl.reset allocs

let record name tag ~incl ~self ~alloc ~d0 ~d1 =
  let add a =
    a.calls <- a.calls + 1;
    a.incl_ns <- a.incl_ns +. incl;
    a.self_ns <- a.self_ns +. self;
    a.alloc_w <- a.alloc_w +. alloc;
    Array.iteri (fun i v -> a.deltas.(i) <- a.deltas.(i) + v - d0.(i)) d1
  in
  add (agg name);
  if tag <> "" then add (agg (name ^ "." ^ tag))

(** [span ?tag ?key name f] runs [f] inside a span when tracing is on.
    [key] identifies the operation for the allocation-repeat check. *)
let span ?(tag = "") ?key name f =
  if not !on then f ()
  else begin
    let parent = match !stack with (p, _) :: _ -> p.id | [] -> 0 in
    let children = ref 0. in
    let d0 = read_counters () in
    let a0 = alloc_words () in
    let s =
      { name; tag; id = !next_id; parent; req = !current_req; t0 = T.now_ns (); t1 = 0L }
    in
    incr next_id;
    stack := (s, children) :: !stack;
    let finish () =
      s.t1 <- T.now_ns ();
      let a1 = alloc_words () in
      let d1 = read_counters () in
      stack := List.tl !stack;
      let incl = Int64.to_float (Int64.sub s.t1 s.t0) in
      (match !stack with (_, c) :: _ -> c := !c +. incl | [] -> ());
      record name tag ~incl ~self:(incl -. !children) ~alloc:(a1 -. a0) ~d0 ~d1;
      Option.iter
        (fun k ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt allocs (name, k)) in
          Hashtbl.replace allocs (name, k) ((a1 -. a0) :: prev))
        key;
      spans := s :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Time spent inside [Ra.Delta.maintain], from the library's always-on
   histogram of it. *)
let h_maintain = T.histogram "view.maintain_ns"

(** [Views.update] in one "write" span.  Its time inside [Ra.Delta.maintain]
    comes from the [view.maintain_ns] histogram read around the call and is
    accounted to "maintain" (per view maintained); the rest, which is
    [Database.apply_delta] and the per-view bookkeeping, to "apply_delta".
    Neither is a span of its own. *)
let update_span tag f =
  if not !on then f ()
  else begin
    let (h0 : T.histogram_snapshot) = T.snapshot h_maintain in
    let w = agg "write" in
    let w0 = w.incl_ns in
    let v = span ~tag "write" f in
    let (h1 : T.histogram_snapshot) = T.snapshot h_maintain in
    let maintain_ns = h1.sum -. h0.sum in
    let account name tag ~calls ~ns =
      let add a =
        a.calls <- a.calls + calls;
        a.incl_ns <- a.incl_ns +. ns
      in
      add (agg name);
      if tag <> "" then add (agg (name ^ "." ^ tag))
    in
    account "maintain" tag ~calls:(h1.count - h0.count) ~ns:maintain_ns;
    account "apply_delta" "" ~calls:1 ~ns:(w.incl_ns -. w0 -. maintain_ns);
    v
  end

(** Layers whose allocation does not repeat exactly: for every operation
    key seen at least three times, the second and later calls (the first may
    fill caches) must allocate the same number of words.  Returns
    [(layer, keys checked, keys that differ)]. *)
let alloc_repeat () =
  let by_layer = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (name, _) l ->
      match List.rev l with
      | _ :: second :: (_ :: _ as rest) ->
        let checked, bad =
          Option.value ~default:(0, 0) (Hashtbl.find_opt by_layer name)
        in
        let same = List.for_all (fun a -> a = second) rest in
        Hashtbl.replace by_layer name (checked + 1, if same then bad else bad + 1)
      | _ -> ())
    allocs;
  Hashtbl.fold (fun n (c, b) acc -> (n, c, b) :: acc) by_layer []
  |> List.sort compare

let counter_delta a name =
  let rec idx i = function
    | [] -> invalid_arg name
    | n :: _ when n = name -> i
    | _ :: tl -> idx (i + 1) tl
  in
  a.deltas.(idx 0 counter_names)

(** Write the spans as Chrome trace-event JSON (one complete event each). *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"tag\":%S}}\n"
        (if i = 0 then "" else ",")
        s.name
        (Int64.to_float s.t0 /. 1e3)
        (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3)
        s.id s.parent s.req s.tag)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
