(* The domain pool: sizing, [run_all]'s batch semantics and exception
   propagation.  Every test runs the interesting cases at pool size 1
   (inline) and > 1 (worker domains + helping submitter). *)

module Pool = Diagres_pool.Pool

let with_size n f =
  let old = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size old) f

let test_set_size () =
  with_size 3 (fun () -> Alcotest.(check int) "resized" 3 (Pool.size ()));
  (match Pool.set_size 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set_size 0 must be rejected");
  Alcotest.(check bool) "size stays >= 1" true (Pool.size () >= 1)

let test_run_all_order () =
  List.iter
    (fun size ->
      with_size size (fun () ->
          let results =
            Pool.run_all (Array.init 37 (fun i () -> i * i))
          in
          Alcotest.(check (array int))
            (Printf.sprintf "results in task order (size %d)" size)
            (Array.init 37 (fun i -> i * i))
            results))
    [ 1; 2; 4 ]

let test_run_all_empty () =
  with_size 2 (fun () ->
      Alcotest.(check (array int)) "empty batch" [||] (Pool.run_all [||]))

exception Boom of int

let test_exceptions_propagate () =
  List.iter
    (fun size ->
      with_size size (fun () ->
          let completed = Atomic.make 0 in
          let tasks =
            Array.init 16 (fun i () ->
                if i = 5 || i = 11 then raise (Boom i)
                else begin
                  Atomic.incr completed;
                  i
                end)
          in
          (match Pool.run_all tasks with
          | _ -> Alcotest.fail "expected the task's exception"
          | exception Boom i ->
            (* the first failure by task index is the one re-raised *)
            Alcotest.(check int)
              (Printf.sprintf "first failure wins (size %d)" size)
              5 i);
          (* one task failing never prevents the others from completing *)
          Alcotest.(check int)
            (Printf.sprintf "other tasks completed (size %d)" size)
            14 (Atomic.get completed)))
    [ 1; 4 ]

let test_usable_after_failure () =
  with_size 4 (fun () ->
      (try ignore (Pool.run_all [| (fun () -> raise Exit); (fun () -> 1) |])
       with Exit -> ());
      Alcotest.(check (array int)) "pool still works" [| 0; 1; 2 |]
        (Pool.run_all (Array.init 3 (fun i () -> i))))

let test_nested_run_all_no_deadlock () =
  (* a batch submitted from inside a pool task: the helping scheduler
     drains the inner batch instead of deadlocking every worker on the
     outer one *)
  with_size 2 (fun () ->
      let inner i =
        Array.fold_left ( + ) 0
          (Pool.run_all (Array.init 10 (fun j () -> i + j)))
      in
      let outer = Pool.run_all (Array.init 8 (fun i () -> inner i)) in
      Alcotest.(check (array int)) "nested results"
        (Array.init 8 (fun i -> (10 * i) + (10 * 9 / 2)))
        outer)

let () =
  Alcotest.run "pool"
    [
      ( "sizing",
        [ Alcotest.test_case "set_size" `Quick test_set_size ] );
      ( "run_all",
        [ Alcotest.test_case "order" `Quick test_run_all_order;
          Alcotest.test_case "empty" `Quick test_run_all_empty;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exceptions_propagate;
          Alcotest.test_case "usable after failure" `Quick
            test_usable_after_failure;
          Alcotest.test_case "nested calls don't deadlock" `Quick
            test_nested_run_all_no_deadlock ] );
    ]
