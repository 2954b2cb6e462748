(* Bounded operations.

   An operation is never interrupted in-process: an asynchronous exception
   raised inside the library can leave a relation mutex locked, and the next
   query then dies with "Mutex.lock: Resource deadlock avoided".  Instead the
   whole workload runs in a forked worker process that announces each
   operation on a pipe ("B <key>" before, "E" after).  The parent only
   watches the pipe.  When one operation outlives the deadline, the parent
   kills the worker, records the operation's key, and starts a fresh worker
   from the beginning; that worker counts the recorded operation as failed
   (deadline) without running it.  Operations are deterministic for a seed,
   so a run ends after at most one restart per operation that misses the
   deadline, and the last worker's report covers the whole stream.  Later
   runs in the same checkout start from the operations earlier runs saw
   miss the deadline.

   The pool is pinned at one domain before any worker is forked, so no
   domain is running when [Unix.fork] is called. *)

let now_ns = Diagres_telemetry.Telemetry.now_ns

(** Keys of the operations that missed the deadline in an earlier worker. *)
let missed : (string, unit) Hashtbl.t = Hashtbl.create 8

let deadline_ns = ref 0L

(** The slowest measured operation that finished within the deadline. *)
let slowest_ns = ref 0L
let beat_fd : Unix.file_descr option ref = ref None

let beat line =
  match !beat_fd with
  | None -> ()
  | Some fd -> ignore (Unix.write_substring fd line 0 (String.length line))

type 'a outcome = Done of 'a | Failed of string

let reason_of_exn = function
  | Diagres_diag.Diag.Error d -> d.Diagres_diag.Diag.code
  | e ->
    let s = Printexc.to_string e in
    if String.length s > 60 then String.sub s 0 60 else s

let is_missed key = Hashtbl.mem missed key

(** Run one operation under the deadline and time it.  [check] marks an
    answer check, which is bounded but not a measured operation. *)
let run ?(check = false) key f =
  if is_missed key then (Failed "deadline", 0L)
  else begin
    beat ("B " ^ key ^ "\n");
    let t0 = now_ns () in
    let r = match f () with v -> Done v | exception e -> Failed (reason_of_exn e) in
    let dt = Int64.sub (now_ns ()) t0 in
    beat "E\n";
    if dt > !deadline_ns then (Failed "deadline", dt)
    else begin
      if (not check) && dt > !slowest_ns then slowest_ns := dt;
      (r, dt)
    end
  end

(* ---------------- the watching parent ---------------- *)

type watch = Exited of int | Missed of string | Out_of_time

let watch pid fd ~deadline ~t_end =
  let buf = Bytes.create 4096 and pending = Buffer.create 256 in
  let cur = ref None in
  let kill () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let take_lines () =
    let s = Buffer.contents pending in
    let parts = String.split_on_char '\n' s in
    let rec go = function
      | [ rest ] ->
        Buffer.clear pending;
        Buffer.add_string pending rest
      | line :: tl ->
        if String.length line > 2 && line.[0] = 'B' then
          cur := Some (String.sub line 2 (String.length line - 2), Unix.gettimeofday ())
        else cur := None;
        go tl
      | [] -> ()
    in
    go parts
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    match !cur with
    | Some (key, t0) when now -. t0 > deadline ->
      kill ();
      Missed key
    | _ when now > t_end ->
      kill ();
      Out_of_time
    | _ -> (
      let wait =
        match !cur with Some (_, t0) -> deadline -. (now -. t0) | None -> 1.0
      in
      let wait = Float.max 0.001 (Float.min wait (t_end -. now)) in
      match Unix.select [ fd ] [] [] wait with
      | [], _, _ -> loop ()
      | _ ->
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED c -> Exited c
          | _ -> Exited 70
        else begin
          Buffer.add_subbytes pending buf 0 n;
          take_lines ();
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

(* Operations that missed the deadline are also kept in [state], one key
   a line, so a later run in the same checkout counts them as failed from
   the start instead of waiting out the deadline again. *)
let load_missed state =
  if Sys.file_exists state then begin
    let ic = open_in state in
    (try
       while true do
         Hashtbl.replace missed (input_line ic) ()
       done
     with End_of_file -> ());
    close_in ic
  end

let save_missed state key =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 state in
  output_string oc (key ^ "\n");
  close_out oc

(** Run [work] in a worker process under the deadline (seconds), restarting
    it after each operation that misses the deadline.  Returns the exit code
    of the worker that finished, or 1 when the run exceeds [budget]
    seconds or [max_restarts]. *)
let supervise ~deadline ~budget ~max_restarts ~state (work : unit -> int) : int =
  Hashtbl.reset missed;
  load_missed state;
  deadline_ns := Int64.of_float (deadline *. 1e9);
  let t_end = Unix.gettimeofday () +. budget in
  let rec attempt restarts =
    let r, w = Unix.pipe ~cloexec:true () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      beat_fd := Some w;
      let code =
        try work ()
        with e ->
          Printf.eprintf "perfbench: worker failed: %s\n%!" (Printexc.to_string e);
          3
      in
      exit code
    | pid -> (
      Unix.close w;
      let outcome = watch pid r ~deadline ~t_end in
      Unix.close r;
      match outcome with
      | Exited c -> c
      | Out_of_time ->
        prerr_endline "perfbench: run exceeded its time budget";
        1
      | Missed key when restarts < max_restarts ->
        Hashtbl.replace missed key ();
        save_missed state key;
        attempt (restarts + 1)
      | Missed _ ->
        prerr_endline "perfbench: too many operations missed the deadline";
        1)
  in
  attempt 0
