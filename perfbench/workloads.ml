(* The three workloads: set-up, the measured closed loop (one client, the
   next request issued when the previous one completes) and the answer
   checks.  NOTES.md says why each workload exists. *)

module D = Diagres_data
module R = D.Relation
module G = D.Generator
module L = Diagres.Languages
module P = Diagres.Pipeline
module V = Diagres.Views
module C = Diagres.Catalog
module Ra = Diagres_ra

type workload = Interactive | Analytic | Maintain

let name = function
  | Interactive -> "interactive"
  | Analytic -> "analytic"
  | Maintain -> "maintain"

(** Per-operation deadline in seconds: at least 10x the slowest operation
    that completes on the workload (NOTES.md, "Deadlines"). *)
let deadline = function Interactive -> 6.0 | Analytic -> 2.5 | Maintain -> 6.0

let ms_of_ns ns = Int64.to_float ns /. 1e6
let lang_tag = Stream.lang_tag

(* ---------------- accounting ---------------- *)

(* A run makes several passes over one stream, each after its own set-up
   (NOTES.md, "Passes"), and an operation's time is the fastest of its
   passes. *)
type kind = Read of L.lang * string  (** language, "q1".."q5" or "fresh" *) | Write | Snapshot

type op = { kind : kind; mutable ms : float }

type acc = {
  ops : (string, op) Hashtbl.t;  (** operation key -> fastest time *)
  mutable attempted : int;
  mutable failed : int;
  failures : (string, int) Hashtbl.t;  (** operation class -> count *)
  mutable wrong : string list;
  mutable unchecked : int;
  seen : (string, unit) Hashtbl.t;  (** texts seen in the current pass *)
  mutable requests : int;
  mutable repeats : int;
}

let new_acc () =
  { ops = Hashtbl.create 4096; attempted = 0; failed = 0;
    failures = Hashtbl.create 16; wrong = []; unchecked = 0;
    seen = Hashtbl.create 1024; requests = 0; repeats = 0 }

let record acc key kind ms =
  match Hashtbl.find_opt acc.ops key with
  | Some o -> if ms < o.ms then o.ms <- ms
  | None -> Hashtbl.add acc.ops key { kind; ms }

let fail acc cls =
  acc.failed <- acc.failed + 1;
  Hashtbl.replace acc.failures cls
    (1 + Option.value ~default:0 (Hashtbl.find_opt acc.failures cls))

let wrong acc msg = if List.length acc.wrong < 20 then acc.wrong <- msg :: acc.wrong

(** Answer checksums by request id ("F" for a failed request): every pass
    of a run, traced or not, must reproduce the first pass's. *)
let sums : (int, string) Hashtbl.t = Hashtbl.create 4096

(** Order-independent row checksum, positional and with [Value.hash]'s
    numeric equality ([Int 2] = [Float 2.]), like [Relation.same_rows]. *)
let checksum r =
  let row t = Array.fold_left (fun h v -> (h * 31) + D.Value.hash v) 17 t in
  R.fold (fun t s -> s + row t) r (R.cardinality r)

let schemas_of db = List.map (fun (n, r) -> (n, R.schema r)) (D.Database.relations db)

(* [Languages.eval] of an RA query is [Eval.eval_planned]; when tracing,
   the benchmark issues its three calls itself, one span each.  The traced
   pass's answers must equal the untraced pass's ([sums]). *)
let eval_call db q =
  match q with
  | L.Q_ra e when !Trace.on ->
    Trace.span "typecheck" (fun () ->
        ignore (Ra.Typecheck.infer (Ra.Typecheck.env_of_database db) e));
    let plan, _ = Trace.span "plan" (fun () -> Ra.Plan_cache.find_or_plan db e) in
    Trace.span "execute" (fun () -> Ra.Plan.run plan)
  | _ -> L.eval db q

exception Step_failed of string * string

(* One guarded, timed step of a request; adds its time to [total]. *)
let step total (r : Stream.req) ?tag name f =
  let key = Stream.key name r in
  match Guard.run key (fun () -> Trace.span ?tag ~key name f) with
  | Guard.Done v, dt ->
    total := Int64.add !total dt;
    v
  | Guard.Failed why, _ -> raise (Step_failed (name, why))

(** The naive [Ra.Eval.eval] answer (checksum), under the deadline. *)
let naive acc key db e =
  match Guard.run ~check:true ("naive " ^ key) (fun () -> checksum (Ra.Eval.eval db e)) with
  | Guard.Done c, _ -> Some c
  | Guard.Failed _, _ ->
    acc.unchecked <- acc.unchecked + 1;
    None

(* ---------------- read requests ---------------- *)

type ctx = {
  db : D.Database.t;
  schemas : (string * D.Schema.t) list;
  visual : bool;  (** interactive: translate, visualize and verify too *)
  expected : (string, int option) Hashtbl.t;  (** catalog id -> naive answer *)
}

let steps ctx =
  if ctx.visual then [ "parse"; "eval"; "translate"; "visualize"; "verify" ]
  else [ "parse"; "eval" ]

(* Records the answer checksum of a checked request.  True on the first
   pass; on a later one, a checksum that differs from the first's is a
   wrong answer. *)
let first_answer acc (r : Stream.req) sum =
  match Hashtbl.find_opt sums r.id with
  | None ->
    Hashtbl.add sums r.id sum;
    true
  | Some s ->
    if s <> sum then wrong acc (Stream.op_class "eval" r ^ ": answer differs between passes");
    false

(** One request: parse, eval, and on the interactive workload translate,
    visualize and verify.  A request whose step is known to miss the
    deadline fails without running.  With [check] its answer is checked
    (outside the timed steps); the warm-up does not check. *)
let request acc ctx ~check (r : Stream.req) =
  acc.attempted <- acc.attempted + 1;
  acc.requests <- acc.requests + 1;
  if Hashtbl.mem acc.seen r.text then acc.repeats <- acc.repeats + 1
  else Hashtbl.add acc.seen r.text ();
  Trace.current_req := r.id;
  let total = ref 0L in
  let outcome =
    match List.find_opt (fun s -> Guard.is_missed (Stream.key s r)) (steps ctx) with
    | Some s -> Error (s, "deadline")
    | None -> (
      try
        Trace.span "request" (fun () ->
            let q = step total r "parse" (fun () -> L.parse r.lang r.text) in
            let tag = lang_tag r.lang in
            let rel = step total r ~tag "eval" (fun () -> eval_call ctx.db q) in
            let verified =
              if not ctx.visual then true
              else begin
                ignore (step total r "translate" (fun () -> L.to_trc_panels ctx.schemas q));
                let f = Option.get r.formalism in
                ignore
                  (step total r ~tag:(Stream.formalism_tag f) "visualize" (fun () ->
                       P.visualize ctx.schemas q f));
                step total r "verify" (fun () -> P.verify_roundtrip ctx.db q)
              end
            in
            Ok (q, rel, verified))
      with Step_failed (s, why) -> Error (s, why))
  in
  match outcome with
  | Error (s, why) ->
    fail acc (Stream.op_class s r ^ ": " ^ why);
    if check then ignore (first_answer acc r "F")
  | Ok (q, rel, verified) ->
    record acc (Printf.sprintf "r%d" r.id) (Read (r.lang, r.query)) (ms_of_ns !total);
    if not verified then wrong acc (Stream.op_class "verify" r ^ ": returned false");
    let sum = checksum rel in
    if check && first_answer acc r (string_of_int sum) then begin
      let expect =
        match (r.query, q) with
        | "fresh", L.Q_ra e -> naive acc (Stream.key "eval" r) ctx.db e
        | "fresh", _ -> None
        | id, _ -> Option.join (Hashtbl.find_opt ctx.expected id)
      in
      Option.iter
        (fun c ->
          if c <> sum then
            wrong acc
              (Printf.sprintf "%s: answer differs from Ra.Eval.eval" (Stream.op_class "eval" r)))
        expect
    end

(* A run is [passes] passes over the same stream, each after its own
   set-up, and an operation's time is the fastest of its passes.  The host
   runs in phases of a few seconds at up to 1.5x the time (NOTES.md,
   "Passes"); passes several seconds apart mostly catch each operation in a
   fast phase at least once.  The traced run makes two: one untraced, one
   traced. *)
let passes = 3

(* A pass is a fixed number of whole rotations, sized from --seconds with
   the time one rotation (one maintain step) takes on the reference machine
   (NOTES.md): the same seed always runs the same requests, and every run
   holds the catalog classes in the same proportions.  Ending on the clock
   instead moved the request count, and with it the tail percentile and the
   peak memory, between runs. *)
let rotation_s = function Interactive -> 7.5 | Analytic -> 1.4 | Maintain -> 0.45

let rotations w ~seconds =
  max 1 (int_of_float (Float.round (seconds /. float_of_int passes /. rotation_s w)))

(* ---------------- set-up ---------------- *)

type setup = { build_s : float; register_s : float; warmup_s : float }

let total s = s.build_s +. s.register_s +. s.warmup_s

let timed f =
  let t0 = Guard.now_ns () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Guard.now_ns ()) t0) /. 1e9)

(* The warm-up stream comes from a seed disjoint from every measured one
   (measured seeds are >= 0), so it settles caches and the allocator
   without pre-filling the plan cache with the measured fresh texts.  It is
   the same for every seed, as are the instance and the update batches: the
   seed picks the fresh queries.  (A seed-dependent 50-sailor instance moved
   the maintain workload's update latencies by 10-15 % between seeds, and
   seed-dependent update batches its median update by up to 35 %.) *)
let warm_seed = -1
let instance_seed = 7
let update_seed = 11

(* Fresh requests per catalog request.  On analytic the catalog requests
   cost 5-150 ms and fresh ones about a millisecond, so nineteen fresh ones
   per catalog request cost little and let every run sample many of the
   queries the seed picks: with three, the language geometric means moved
   by up to 20 % between seeds, and by up to 30 % with nine. *)
let fresh_per_catalog = function Analytic -> 19 | _ -> 1

let formalisms = function
  | Interactive ->
    fun l ->
      [ P.Relational_diagram; P.Query_vis; P.Dfql; P.Conceptual_graph ]
      @ if l = L.Datalog then [ P.Qbe ] else []
  | _ -> fun _ -> []

let copy db =
  D.Database.of_list
    (List.map (fun (n, r) -> (n, R.of_tuples (R.schema r) (R.tuples r))) (D.Database.relations db))

(* The warm-up: every (language, catalog query) twice, each followed by
   one fresh request. *)
let warm_requests = 100

let read_setup w ~expected : ctx * setup =
  Ra.Plan_cache.clear ();
  let db, build_s =
    timed (fun () ->
        match w with
        | Interactive -> copy D.Sample_db.db
        | _ -> G.sailors_db ~n_sailors:1000 ~n_boats:100 ~n_reserves:2000 instance_seed)
  in
  let ctx =
    { db; schemas = schemas_of db; visual = w = Interactive; expected }
  in
  let ws =
    Stream.make ~seed:warm_seed ~schemas:ctx.schemas ~formalisms:(formalisms w) ~fresh:1
  in
  let junk = new_acc () in
  let (), warmup_s =
    timed (fun () -> for _ = 1 to warm_requests do request junk ctx ~check:false (Stream.next ws) done)
  in
  (ctx, { build_s; register_s = 0.; warmup_s })

(* ---------------- writes on interactive and analytic ---------------- *)

let batch_frac = 0.02

(* These workloads have no views, and their reads see one instance
   throughout.  So their writes run between rotations of reads: a chain of
   insert/delete batches, one per request of a rotation, applied with
   [Database.apply_delta], each to the state the one before left, starting
   from the instance the reads use.  Each batch deletes 2 % of every
   relation's current rows (at least 20 rows in all: one-row batches on the
   25-tuple instance took 4 us and varied by 30 % between runs) and inserts
   back the rows the batch before deleted, so the relations keep their size
   along the chain.  The chain's result is dropped: these writes change no
   data that any read sees.  The batches do not depend on the seed.  A
   write takes microseconds here, too short to time once against the host's
   phases, so the chain is replayed from the instance [write_replays] times
   after every rotation, and a write's time is the fastest of all its
   replays. *)
let write_replays = function Interactive -> 20 | _ -> 3

(** [write_chain ctx ~n] is the chain of [n] writes; each call of the
    result replays it into an accumulator.  A write counts as attempted
    once per chain, however often it is replayed. *)
let write_chain ctx ~n =
  let tuples = D.Database.total_tuples ctx.db in
  let frac = Float.max batch_frac (20. /. float_of_int tuples) in
  let rng = Random.State.make [| 7919 |] in
  let deleted = Hashtbl.create 3 in
  let next_batch db =
    List.map
      (fun (name, rel) ->
        let rows = Array.copy (R.tuples_array rel) in
        let len = Array.length rows in
        let k = max 1 (int_of_float (frac *. float_of_int len)) in
        (* the first k of a partial Fisher-Yates shuffle: k distinct rows *)
        for i = 0 to k - 1 do
          let j = i + Random.State.int rng (len - i) in
          let t = rows.(i) in
          rows.(i) <- rows.(j);
          rows.(j) <- t
        done;
        let dels = R.of_tuples (R.schema rel) (Array.to_list (Array.sub rows 0 k)) in
        let ins = Option.value ~default:(R.empty (R.schema rel)) (Hashtbl.find_opt deleted name) in
        Hashtbl.replace deleted name dels;
        (name, ins, dels))
      (D.Database.relations db)
  in
  let batches = Array.make n [] and replayed = ref 0 in
  fun acc ->
    incr replayed;
    let first = !replayed = 1 in
    let db = ref ctx.db in
    for i = 0 to n - 1 do
      if first then begin
        batches.(i) <- next_batch !db;
        acc.attempted <- acc.attempted + 1
      end;
      let key = Printf.sprintf "write %d" i in
      match
        Guard.run key (fun () ->
            Trace.span "write" (fun () ->
                Trace.span "apply_delta" (fun () -> D.Database.apply_delta batches.(i) !db)))
      with
      | Guard.Done (db', _), dt ->
        db := db';
        record acc key Write (ms_of_ns dt)
      | Guard.Failed why, _ -> if first then fail acc ("apply_delta: " ^ why)
    done

(* ---------------- the maintain workload ---------------- *)

type mctx = {
  regs : (L.lang * V.t) list;  (** one registry per language *)
  seed : int;  (** of the ad-hoc queries *)
  rng : G.rng;
  adhoc : Stream.t;
  mutable steps : int;
}

let n_sailors = 50
let adhoc_per_step = 40
let warm_steps = 3

let maintain_step acc m ~check =
  m.steps <- m.steps + 1;
  let first = snd (List.hd m.regs) in
  let batch = G.update_batch ~frac:batch_frac m.rng (V.database first) in
  (* writes *)
  List.iter
    (fun (lang, reg) ->
      acc.attempted <- acc.attempted + 1;
      let key = Printf.sprintf "update %s %d/%d" (L.name lang) m.seed m.steps in
      match Guard.run key (fun () -> Trace.update_span (lang_tag lang) (fun () -> V.update reg batch)) with
      | Guard.Done _, dt -> record acc key Write (ms_of_ns dt)
      | Guard.Failed why, _ -> fail acc (Printf.sprintf "update %s: %s" (L.name lang) why))
    m.regs;
  (* snapshot reads: the rows a client repaints after the update *)
  List.iter
    (fun (lang, reg) ->
      List.iter
        (fun (e : C.entry) ->
          acc.attempted <- acc.attempted + 1;
          let key = Printf.sprintf "snapshot %s %s %d" (L.name lang) e.C.id m.steps in
          let read () =
            match V.find_opt reg e.C.id with
            | None -> failwith "view not registered"
            | Some v ->
              let _, rows, _ = V.snapshot v in
              ignore (R.tuples_array rows)
          in
          match Guard.run key (fun () -> Trace.span "snapshot" read) with
          | Guard.Done (), dt -> record acc key Snapshot (ms_of_ns dt)
          | Guard.Failed why, _ ->
            fail acc (Printf.sprintf "snapshot %s %s: %s" (L.name lang) e.C.id why))
        C.all)
    m.regs;
  (* ad-hoc reads, each against its registry's current database *)
  for _ = 1 to adhoc_per_step do
    List.iter
      (fun (lang, reg) ->
        let db = V.database reg in
        let ctx = { db; schemas = schemas_of db; visual = false; expected = Hashtbl.create 1 } in
        request acc ctx ~check (Stream.adhoc m.adhoc lang))
      m.regs
  done

(* The traced pass also traces registration, one [Views.register] span
   per view. *)
let maintain_setup acc ~seed ~trace : mctx * setup =
  Ra.Plan_cache.clear ();
  let db, build_s =
    timed (fun () ->
        G.sailors_db ~n_sailors ~n_boats:(n_sailors / 10) ~n_reserves:(2 * n_sailors) instance_seed)
  in
  let regs = List.map (fun l -> (l, V.create db)) L.all in
  Trace.on := trace;
  let (), register_s =
    timed (fun () ->
        List.iter
          (fun (lang, reg) ->
            List.iter
              (fun (e : C.entry) ->
                acc.attempted <- acc.attempted + 1;
                let key = Printf.sprintf "register %s %s" (L.name lang) e.C.id in
                let source = Stream.catalog_text e lang in
                match
                  Guard.run key (fun () ->
                      Trace.span "register" ~tag:(lang_tag lang) (fun () ->
                          ignore (V.register reg ~name:e.C.id ~lang ~source)))
                with
                | Guard.Done (), _ -> ()
                | Guard.Failed why, _ ->
                  fail acc (Printf.sprintf "register %s %s: %s" (L.name lang) e.C.id why))
              C.all)
          regs)
  in
  Trace.on := false;
  let schemas = schemas_of db in
  let mk ~updates seed =
    { regs; seed; rng = G.rng updates; steps = 0;
      adhoc = Stream.make ~seed ~schemas ~formalisms:(fun _ -> []) ~fresh:0 }
  in
  let (), warmup_s =
    timed (fun () ->
        let w = mk ~updates:warm_seed warm_seed in
        let junk = new_acc () in
        for _ = 1 to warm_steps do maintain_step junk w ~check:false done)
  in
  (mk ~updates:update_seed seed, { build_s; register_s; warmup_s })

(** End-of-run view checks: every maintained view equals [Views.verify]'s
    recomputation and the naive [Ra.Eval.eval] of the view's RA form.  The
    five formulations of one catalog query are not compared here: update
    batches break the instance's keys and references (a deleted sailor's
    reservations stay, an inserted sailor may reuse a sid), and on such an
    instance the catalog's formulations legitimately differ. *)
let check_views acc m =
  List.iter
    (fun (lang, reg) ->
      List.iter
        (fun (_, (v : V.view)) ->
          let cls = Printf.sprintf "view %s %s" (L.name lang) v.V.name in
          (match Guard.run ~check:true ("verify " ^ cls) (fun () -> V.verify reg v) with
          | Guard.Done true, _ -> ()
          | Guard.Done false, _ -> wrong acc (cls ^ ": differs from Views.verify")
          | Guard.Failed _, _ -> acc.unchecked <- acc.unchecked + 1);
          match naive acc cls (V.database reg) v.V.ra with
          | Some c when c <> checksum (V.result v) ->
            wrong acc (cls ^ ": differs from Ra.Eval.eval")
          | _ -> ())
        (V.views reg))
    m.regs
