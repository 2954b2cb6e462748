(* Order statistics and the result line. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(** Linear-interpolated percentile [p] (0-100) of a sorted array. *)
let pct (a : float array) p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = float_of_int (n - 1) *. p /. 100. in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = pct (sorted l) 50.

let geomean l =
  match l with
  | [] -> 0.
  | _ ->
    exp
      (List.fold_left (fun s x -> s +. log (Float.max x 1e-9)) 0. l
      /. float_of_int (List.length l))

(** The tail: the highest percentile of the ladder with at least ten
    samples beyond it.  Returns (percentile, samples beyond, value). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  let beyond p = int_of_float (float_of_int n *. (100. -. p) /. 100.) in
  let p =
    List.fold_left
      (fun best p -> if beyond p >= 10 then p else best)
      50. [ 90.; 95.; 99.; 99.9; 99.99 ]
  in
  (p, beyond p, pct a p)

(** Peak resident set of this process, in MB (VmHWM). *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
          | _ -> go ()
        in
        go ())
  in
  try from_proc ()
  with _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let result_line ~correct ~attempted ~failed (ms : metric list) =
  let body =
    List.map
      (fun x ->
        let v =
          if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "0"
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name v x.unit_)
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)
