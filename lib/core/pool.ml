(** A reusable fixed-size pool of worker domains.

    OCaml 5 gives shared-memory parallelism through [Domain], but spawning
    a domain costs tens of microseconds and the runtime caps the useful
    count at the core count — exactly the situation a worker pool exists
    for.  This module owns that pool for the whole library: the morsel-
    parallel physical operators ({!Diagres_ra.Plan}) and anything else
    that wants [parallel_map_chunks]/[parallel_fold] over tuple arrays.

    Design points:

    - {b fixed size, lazily started} — the pool holds [size () - 1] worker
      domains (the submitting domain is the remaining worker); nothing is
      spawned until the first parallel call, and a pool of size 1 never
      spawns at all and runs every task inline;
    - {b sizing} — [Domain.recommended_domain_count ()] by default,
      overridden by the [DIAGRES_DOMAINS] environment variable at startup
      and by {!set_size} (the [qviz --domains N] flag) at run time;
    - {b helping scheduler} — [run_all] pushes its tasks on a shared queue
      ([Mutex] + [Condition]) and then {e helps drain the queue} instead of
      blocking, so nested parallel calls (a parallel operator inside a task)
      cannot deadlock the pool;
    - {b exceptions propagate} — each task records [Ok]/[Error]; after the
      batch completes the first failure is re-raised in the submitter, and
      one task failing never prevents the others from completing.

    Determinism is the callers' contract: both primitives return per-chunk
    results in chunk order, so a deterministic merge gives results
    independent of the domain count (property-tested against the
    sequential engines at 1, 2, and N domains). *)

module T = Diagres_telemetry.Telemetry

(* ---------------- pool telemetry ----------------

   Utilization counters, always on (one atomic add per *task*, i.e. per
   morsel, which is noise next to the morsel's work):

   - [pool.tasks.queued]   tasks pushed on the shared queue
   - [pool.tasks.executed] tasks run by a worker domain
   - [pool.tasks.helped]   tasks stolen by the submitting domain's help
                           loop (nonzero = the submitter was not idle)
   - [pool.batches]        run_all batches that actually used the pool
   - [pool.tasks.inline]   tasks run inline (pool of size 1 / singleton)

   Busy time needs two clock reads per task, so it is gated on the
   telemetry flag: per-domain counters [pool.worker<i>.busy_ns] /
   [pool.helper.busy_ns] plus the [pool.task_ns] histogram. *)

let c_queued = T.counter "pool.tasks.queued"
let c_executed = T.counter "pool.tasks.executed"
let c_helped = T.counter "pool.tasks.helped"
let c_batches = T.counter "pool.batches"
let c_inline = T.counter "pool.tasks.inline"
let c_helper_busy = T.counter "pool.helper.busy_ns"
let h_task_ns = T.histogram "pool.task_ns"

(* run one queue task, attributing its busy time to [busy] when tracing *)
let run_task ~busy (t : unit -> unit) =
  if not (T.enabled ()) then t ()
  else begin
    let t0 = T.now_ns () in
    t ();
    let dt = Int64.sub (T.now_ns ()) t0 in
    T.add busy (Int64.to_int dt);
    T.observe h_task_ns (Int64.to_float dt)
  end

(* ---------------- sizing ---------------- *)

let env_size () =
  match Sys.getenv_opt "DIAGRES_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)
  | None -> None

let requested_size =
  ref (match env_size () with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())

let size () = !requested_size

(* ---------------- the shared queue ---------------- *)

type pool = {
  mutex : Mutex.t;
  nonempty : Condition.t;          (* signalled when a task is pushed *)
  queue : (unit -> unit) Queue.t;  (* pending tasks, any batch *)
  mutable workers : unit Domain.t list;
  mutable stopping : bool;
}

let pool : pool option ref = ref None
let pool_mutex = Mutex.create ()  (* guards [pool] itself *)

let worker_loop (p : pool) (wid : int) () =
  let busy = T.counter (Printf.sprintf "pool.worker%d.busy_ns" wid) in
  let rec loop () =
    Mutex.lock p.mutex;
    let rec next () =
      if p.stopping then None
      else
        match Queue.take_opt p.queue with
        | Some t -> Some t
        | None ->
          Condition.wait p.nonempty p.mutex;
          next ()
    in
    let task = next () in
    Mutex.unlock p.mutex;
    match task with
    | None -> ()
    | Some t ->
      (* tasks are wrapped by [run_all] and never raise *)
      T.incr c_executed;
      run_task ~busy t;
      loop ()
  in
  loop ()

(* Start (or return) the shared pool with [n - 1] workers. *)
let ensure_pool n : pool =
  Mutex.lock pool_mutex;
  let p =
    match !pool with
    | Some p when List.length p.workers = n - 1 -> p
    | existing ->
      (* size changed (or first use): retire the old workers, start anew *)
      Option.iter
        (fun (p : pool) ->
          Mutex.lock p.mutex;
          p.stopping <- true;
          Condition.broadcast p.nonempty;
          Mutex.unlock p.mutex;
          List.iter Domain.join p.workers)
        existing;
      let p =
        { mutex = Mutex.create (); nonempty = Condition.create ();
          queue = Queue.create (); workers = []; stopping = false }
      in
      p.workers <- List.init (n - 1) (fun i -> Domain.spawn (worker_loop p i));
      pool := Some p;
      p
  in
  Mutex.unlock pool_mutex;
  p

(** Retire the worker domains (if any).  The next parallel call restarts
    them; used by {!set_size} and by tests that want a cold pool. *)
let shutdown () =
  Mutex.lock pool_mutex;
  Option.iter
    (fun (p : pool) ->
      Mutex.lock p.mutex;
      p.stopping <- true;
      Condition.broadcast p.nonempty;
      Mutex.unlock p.mutex;
      List.iter Domain.join p.workers)
    !pool;
  pool := None;
  Mutex.unlock pool_mutex

(** Set the pool size (the [--domains N] flag).  Takes effect immediately:
    a running pool of a different size is retired first. *)
let set_size n =
  if n < 1 then invalid_arg "Pool.set_size: size must be >= 1";
  if n <> !requested_size then begin
    requested_size := n;
    shutdown ()
  end

(* ---------------- batches ---------------- *)

type 'a slot = Pending | Done of 'a | Failed of exn

(** [run_all thunks] runs every thunk, in parallel across the pool, and
    returns their results in order.  With a pool of size 1 — or a single
    thunk — everything runs inline in the calling domain.  If any thunk
    raises, the remaining thunks still complete and the first exception
    (by thunk index) is re-raised after the batch. *)
let collect_slots slots =
  Array.map
    (function
      | Done v -> v
      | Failed e -> raise e
      | Pending -> assert false)
    slots

let run_all (thunks : (unit -> 'a) array) : 'a array =
  let n = Array.length thunks in
  if n = 0 then [||]
  else if size () = 1 || n = 1 then begin
    (* inline, but with the same batch semantics as the pooled path: every
       task runs even if an earlier one failed *)
    T.add c_inline n;
    collect_slots
      (Array.map
         (fun f -> match f () with v -> Done v | exception e -> Failed e)
         thunks)
  end
  else begin
    let p = ensure_pool (size ()) in
    T.incr c_batches;
    T.add c_queued n;
    let slots = Array.make n Pending in
    let remaining = Atomic.make n in
    let task i () =
      (slots.(i) <-
        (match thunks.(i) () with
        | v -> Done v
        | exception e -> Failed e));
      Atomic.decr remaining
    in
    Mutex.lock p.mutex;
    for i = n - 1 downto 0 do
      Queue.push (task i) p.queue
    done;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.mutex;
    (* help: drain tasks (ours or a nested batch's) until our batch is done.
       Spinning only happens in the rare window where every remaining task
       of the batch is mid-flight on another domain. *)
    while Atomic.get remaining > 0 do
      Mutex.lock p.mutex;
      let task = Queue.take_opt p.queue in
      Mutex.unlock p.mutex;
      match task with
      | Some t ->
        T.incr c_executed;
        T.incr c_helped;
        run_task ~busy:c_helper_busy t
      | None -> Domain.cpu_relax ()
    done;
    collect_slots slots
  end

(* ---------------- array primitives ---------------- *)

let default_chunk = 1024

let chunk_bounds ~chunk len =
  let nchunks = (len + chunk - 1) / chunk in
  Array.init nchunks (fun i ->
      let lo = i * chunk in
      (lo, min chunk (len - lo)))

(** [parallel_map_chunks ~chunk f arr] splits [arr] into morsels of at most
    [chunk] elements, applies [f] to each sub-array across the pool, and
    returns the per-morsel results {e in morsel order} — the deterministic
    merge point for the parallel operators. *)
let parallel_map_chunks ?(chunk = default_chunk) (f : 'a array -> 'b)
    (arr : 'a array) : 'b array =
  if chunk < 1 then invalid_arg "Pool.parallel_map_chunks: chunk must be >= 1";
  let len = Array.length arr in
  if len = 0 then [||]
  else
    run_all
      (Array.map
         (fun (lo, n) () -> f (Array.sub arr lo n))
         (chunk_bounds ~chunk len))

(** [parallel_fold ~chunk ~map ~merge ~init arr]: map every morsel in
    parallel, then merge the per-morsel results {e sequentially, in morsel
    order} — associative [merge] therefore gives the same answer at every
    domain count. *)
let parallel_fold ?(chunk = default_chunk) ~(map : 'a array -> 'b)
    ~(merge : 'b -> 'b -> 'b) ~(init : 'b) (arr : 'a array) : 'b =
  Array.fold_left merge init (parallel_map_chunks ~chunk map arr)

(** [parallel_list_map f xs]: whole-element parallelism for short lists of
    expensive tasks (one task per element). *)
let parallel_list_map (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (run_all (Array.map (fun x () -> f x) (Array.of_list xs)))
