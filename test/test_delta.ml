(* Incremental view maintenance: differential evaluation over the
   physical plan algebra.

   Coverage:

   - unit tests for the canonical-batch merge set operations (including
     nullary batches and string columns with differing dictionaries) and
     for [Relation.apply_delta] normalization;
   - deterministic retraction tests: projection support counts (a delete
     must not retract an output other inputs still support) and the
     membership-probe rules of the set operations;
   - the plan-sharing regression: a registered view's plan is the same
     object the LRU plan cache serves to ad-hoc [eval_planned] calls —
     maintenance must keep working because its state lives with the
     view, not on plan nodes;
   - the concurrent-run regression: registering a view while another
     domain runs the same cached plan, and two domains running one plan
     at once, give the sequential results (per-node row counts
     included);
   - the cached-index regression: with the pool at several domains, a
     join view's delta probes keep serving the stable side's index from
     the relation cache round after round;
   - a randomized insert/delete-stream differential: maintained result ≡
     recomputed ≡ naive, over qgen-generated plans, crossed over 1/4
     domains (overridable via DIAGRES_DOMAINS, which is how CI crosses
     the pool sizes) and columnar on/off. *)

module D = Diagres_data
module R = D.Relation
module V = D.Value
module B = D.Batch
module Plan = Diagres_ra.Plan
module Planner = Diagres_ra.Planner
module Plan_cache = Diagres_ra.Plan_cache
module Delta = Diagres_ra.Delta
module Eval = Diagres_ra.Eval
module Views = Diagres.Views
module Languages = Diagres.Languages
module Pool = Diagres_pool.Pool
module Q = Diagres.Qgen
module T = Diagres_telemetry.Telemetry

(* Same forcing harness as test_columnar: tiny thresholds so every
   eligible operator — including the ephemeral delta nodes — runs its
   vectorized, multi-batch, pooled paths even on sample-sized inputs. *)
let forcing ?(columnar = true) domains f =
  let old_size = Pool.size () in
  let old_thr = !Plan.par_threshold and old_morsel = !Plan.morsel_size in
  let old_vec = !Plan.vec_threshold and old_batch = !Plan.batch_rows in
  let old_col = !Plan.columnar_enabled in
  Pool.set_size domains;
  Plan.par_threshold := 0;
  Plan.morsel_size := 3;
  Plan.vec_threshold := 0;
  Plan.batch_rows := 3;
  Plan.columnar_enabled := columnar;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_size old_size;
      Plan.par_threshold := old_thr;
      Plan.morsel_size := old_morsel;
      Plan.vec_threshold := old_vec;
      Plan.batch_rows := old_batch;
      Plan.columnar_enabled := old_col)
    f

(* ------------------------------------------------------------------ *)
(* Canonical-batch merge set operations.                               *)

let ints name vs =
  R.of_lists
    (D.Schema.make [ (name, V.Tint) ])
    (List.map (fun i -> [ V.Int i ]) vs)

let strs name vs =
  R.of_lists
    (D.Schema.make [ (name, V.Tstring) ])
    (List.map (fun s -> [ V.String s ]) vs)

let check_merges a b =
  let check what merge reference =
    let merged = R.of_batch (R.schema a) (merge (R.batch a) (R.batch b)) in
    if not (R.same_rows merged reference) then
      Alcotest.failf "merge %s diverges from row-mode reference" what
  in
  check "union" B.merge_union (R.union a b);
  check "inter" B.merge_inter (R.inter a b);
  check "diff" B.merge_diff (R.diff a b)

let test_merge_setops () =
  check_merges (ints "x" [ 1; 3; 5; 7 ]) (ints "x" [ 2; 3; 7; 9 ]);
  check_merges (ints "x" []) (ints "x" [ 1; 2 ]);
  check_merges (ints "x" [ 1; 2 ]) (ints "x" []);
  (* string columns dictionary-encode per batch: overlapping but unequal
     value sets force the differing-dictionary merge path *)
  check_merges (strs "c" [ "a"; "b"; "c" ]) (strs "c" [ "b"; "d" ]);
  check_merges (strs "c" [ "red"; "blue" ]) (strs "c" [ "green"; "red" ])

let test_merge_nullary () =
  (* nullary relations: the Boolean relation {()} or {} *)
  let t = R.project [] (ints "x" [ 1 ]) and f = R.project [] (ints "x" []) in
  List.iter (fun (a, b) -> check_merges a b) [ (t, t); (t, f); (f, t); (f, f) ]

(* ------------------------------------------------------------------ *)
(* Relation.apply_delta normalization.                                 *)

let test_apply_delta_normalizes () =
  let r = ints "x" [ 1; 2 ] in
  let r', ins, del =
    R.apply_delta ~inserts:(ints "x" [ 2; 3 ]) ~deletes:(ints "x" [ 1; 3; 9 ])
      r
  in
  (* insert 2 is already present; delete 3 loses to the insert, delete 9
     is absent; so: ins = {3}, del = {1}, result = {2, 3} *)
  Alcotest.(check bool) "result" true (R.same_rows r' (ints "x" [ 2; 3 ]));
  Alcotest.(check bool) "ins" true (R.same_rows ins (ints "x" [ 3 ]));
  Alcotest.(check bool) "del" true (R.same_rows del (ints "x" [ 1 ]));
  (* a delta that normalizes to nothing returns the relation itself:
     stamp and caches survive *)
  let r'', _, _ =
    R.apply_delta ~inserts:(ints "x" [ 1 ]) ~deletes:(ints "x" [ 7 ]) r
  in
  Alcotest.(check int) "no-op keeps the stamp" (R.stamp r) (R.stamp r'')

(* ------------------------------------------------------------------ *)
(* Deterministic retraction: projection support, set-op membership.     *)

let row sid name = [ V.Int sid; V.String name ]

let small_s rows =
  R.of_lists (D.Schema.make [ ("sid", V.Tint); ("sname", V.Tstring) ]) rows

let test_project_support_counts () =
  let s = small_s [ row 1 "ann"; row 2 "ann"; row 3 "bob" ] in
  let db = D.Database.of_list [ ("S", s) ] in
  let reg = Views.create db in
  let v =
    Views.register reg ~name:"names" ~lang:Languages.Ra
      ~source:"project[sname](S)"
  in
  let del rows = [ ("S", R.empty (R.schema s), small_s rows) ] in
  (* deleting (1, ann) must NOT retract ann — (2, ann) still supports it *)
  let stats = Views.update reg (del [ row 1 "ann" ]) in
  Alcotest.(check (list (pair int int)))
    "first delete changes nothing"
    [ (0, 0) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  Alcotest.(check bool) "ann survives" true (Views.verify reg v);
  (* deleting the last support retracts it *)
  let stats = Views.update reg (del [ row 2 "ann" ]) in
  Alcotest.(check (list (pair int int)))
    "last support retracts"
    [ (0, 1) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  Alcotest.(check bool) "verified" true (Views.verify reg v);
  Alcotest.(check int) "only bob left" 1 (R.cardinality (Views.result v))

let test_union_retraction () =
  let a = ints "x" [ 1; 2 ] and b = ints "x" [ 2; 3 ] in
  let db = D.Database.of_list [ ("A", a); ("B", b) ] in
  let reg = Views.create db in
  let v =
    Views.register reg ~name:"u" ~lang:Languages.Ra ~source:"A union B"
  in
  (* deleting 2 from A alone must not retract it — B still holds it *)
  let stats =
    Views.update reg [ ("A", ints "x" [], ints "x" [ 2 ]) ]
  in
  Alcotest.(check (list (pair int int)))
    "sibling still supports"
    [ (0, 0) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  (* now delete it from B too *)
  let stats =
    Views.update reg [ ("B", ints "x" [], ints "x" [ 2 ]) ]
  in
  Alcotest.(check (list (pair int int)))
    "now it retracts"
    [ (0, 1) ]
    (List.map (fun s -> (s.Views.inserts, s.Views.deletes)) stats);
  Alcotest.(check bool) "verified" true (Views.verify reg v)

let test_division_view () =
  let db = Testutil.db in
  let reg = Views.create db in
  let v =
    Views.register reg ~name:"all_boats" ~lang:Languages.Ra
      ~source:"project[sid, bid](Reserves) div project[bid](Boat)"
  in
  let res_schema = D.Database.schema_of "Reserves" db in
  let boat_schema = D.Database.schema_of "Boat" db in
  let no_res = R.empty res_schema and no_boat = R.empty boat_schema in
  (* dividend-only delta: a sailor completes the set of boats *)
  let missing =
    R.diff
      (R.product
         (R.project [ "sid" ] (D.Database.find "Sailor" db))
         (R.project [ "bid" ] (D.Database.find "Boat" db)))
      (R.project [ "sid"; "bid" ] (D.Database.find "Reserves" db))
  in
  let some_sid =
    match R.tuples missing with
    | t :: _ -> (match t.(0) with V.Int s -> s | _ -> assert false)
    | [] -> Alcotest.fail "sample instance has a sailor missing a boat"
  in
  let completing =
    R.filter (fun t -> V.compare t.(0) (V.Int some_sid) = 0) missing
  in
  let day t = Array.append t [| V.String "1/1" |] in
  let ins = R.of_tuples res_schema (List.map day (R.tuples completing)) in
  ignore (Views.update reg [ ("Reserves", ins, no_res) ]);
  Alcotest.(check bool) "dividend delta verified" true (Views.verify reg v);
  Alcotest.(check bool)
    "completed sailor appears" true
    (R.mem [| V.Int some_sid |] (Views.result v));
  (* divisor delta: a brand-new boat empties the division again *)
  let new_boat =
    R.of_lists boat_schema [ [ V.Int 999; V.String "Ghost"; V.String "black" ] ]
  in
  ignore (Views.update reg [ ("Boat", new_boat, no_boat) ]);
  Alcotest.(check bool) "divisor delta verified" true (Views.verify reg v);
  Alcotest.(check bool)
    "nobody reserved the new boat" true
    (R.is_empty (Views.result v))

(* ------------------------------------------------------------------ *)
(* The plan-sharing regression (differential state must live with the  *)
(* view, never on plan nodes).                                         *)

let test_plan_cache_sharing () =
  let src = "project[sname](Sailor join Reserves)" in
  let db0 = Testutil.db in
  let reg = Views.create db0 in
  let v = Views.register reg ~name:"v" ~lang:Languages.Ra ~source:src in
  (* an ad-hoc planned evaluation of the same query against the same
     database is served the very same plan object from the LRU cache... *)
  let e =
    match Languages.parse Languages.Ra src with
    | Languages.Q_ra e -> e
    | _ -> assert false
  in
  let plan2, cached = Plan_cache.find_or_plan db0 e in
  Alcotest.(check bool) "plan served from cache" true cached;
  Alcotest.(check bool) "same plan object" true (plan2 == v.Views.plan);
  (* ...and runs it for its own callers.  Interleave such runs with
     maintenance rounds: the view must stay correct because its
     differential state is its own. *)
  let r = D.Generator.rng 42 in
  for round = 1 to 3 do
    ignore (Plan.run v.Views.plan);
    let changes =
      D.Generator.update_batch ~frac:0.3 r (Views.database reg)
    in
    ignore (Views.update reg changes);
    ignore (Plan.run v.Views.plan);
    if not (Views.verify reg v) then
      Alcotest.failf "round %d: maintained result diverged after Plan.run"
        round;
    let naive = Diagres_ra.Eval.eval (Views.database reg) v.Views.ra in
    if not (R.same_rows naive (Views.result v)) then
      Alcotest.failf "round %d: maintained result diverged from naive" round
  done

(* ------------------------------------------------------------------ *)
(* Cached stable-side index under a multi-domain pool.                 *)

(* A delta-probe join must build on the stable side through its cached
   per-relation index, so a round that changes only Reserves costs
   O(|Δ|) after the first: every later round is served from the cache
   (hits grow, misses do not), whatever the pool size. *)
let test_delta_join_reuses_cached_index () =
  forcing 4 (fun () ->
      let db =
        ref (D.Generator.sailors_db ~n_sailors:50 ~n_boats:10 ~n_reserves:100 7)
      in
      let e = Diagres_ra.Parser.parse "project[sname](Sailor join Reserves)" in
      let view = Delta.init (Planner.plan !db e) in
      let r = D.Generator.rng 7 in
      (* one maintenance round; the counters are read before the naive
         check, whose own joins build indexes on the fresh Reserves *)
      let round k =
        let changes =
          D.Generator.update_batch ~relations:[ "Reserves" ] ~frac:0.1 r !db
        in
        let db', applied = D.Database.apply_delta changes !db in
        db := db';
        let hit0 = T.counter_named "index.cache.hit"
        and miss0 = T.counter_named "index.cache.miss" in
        let rep = Delta.maintain view applied in
        let hits = T.counter_named "index.cache.hit" - hit0
        and misses = T.counter_named "index.cache.miss" - miss0 in
        Testutil.check_same_rows
          (Printf.sprintf "round %d: maintained = naive" k)
          (Eval.eval !db e) rep.Delta.result;
        (hits, misses)
      in
      (* the first round builds the stable side's index *)
      ignore (round 1 : int * int);
      for k = 2 to 4 do
        let hits, misses = round k in
        if hits = 0 then
          Alcotest.failf "round %d: stable-side index not served from cache" k;
        Alcotest.(check int) (Printf.sprintf "round %d builds no index" k) 0
          misses
      done)

(* ------------------------------------------------------------------ *)
(* Concurrent runs of one cached plan.                                 *)

let concurrent_db =
  D.Generator.sailors_db ~n_sailors:200 ~n_boats:20 ~n_reserves:400 11

let concurrent_src =
  "project[sname](Sailor join Reserves join project[bid](select[color = \
   'red'](Boat))) union project[sname](select[rating > 7](Sailor))"

(* Run [f] in a second domain until [body] returns; the domain has
   finished at least one [f] before [body] starts.  Returns [body]'s
   result and how many times [f] ran; an exception from [f] stops the
   loop and is re-raised here. *)
let with_background_loop f body =
  let stop = Atomic.make false and runs = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set stop true) @@ fun () ->
        while not (Atomic.get stop) do
          f ();
          Atomic.incr runs
        done)
  in
  while Atomic.get runs = 0 && not (Atomic.get stop) do
    Domain.cpu_relax ()
  done;
  let result = Fun.protect ~finally:(fun () -> Atomic.set stop true) body in
  Domain.join d;
  (result, Atomic.get runs)

(* Registering a view snapshots its node results from the plan's run.
   While another domain runs the same cached plan in a loop, every
   registration must succeed and equal the sequential one. *)
let test_register_during_concurrent_runs () =
  List.iter
    (fun domains ->
      let old_size = Pool.size () in
      Pool.set_size domains;
      Fun.protect ~finally:(fun () -> Pool.set_size old_size) @@ fun () ->
      let reg = Views.create concurrent_db in
      let v0 =
        Views.register reg ~name:"v" ~lang:Languages.Ra ~source:concurrent_src
      in
      let expected = Views.result v0 in
      let failures, runs =
        with_background_loop
          (fun () -> ignore (Plan.run v0.Views.plan : R.t))
          (fun () ->
            List.filter_map
              (fun i ->
                match
                  Views.register reg ~name:"v" ~lang:Languages.Ra
                    ~source:concurrent_src
                with
                | v when v.Views.plan != v0.Views.plan ->
                  Some (Printf.sprintf "#%d: plan not served from cache" i)
                | v when not (R.same_rows expected (Views.result v)) ->
                  Some (Printf.sprintf "#%d: result differs" i)
                | _ -> None
                | exception e ->
                  Some (Printf.sprintf "#%d: %s" i (Printexc.to_string e)))
              (List.init 100 Fun.id))
      in
      Alcotest.(check bool)
        (Printf.sprintf "background domain ran (%d domains)" domains)
        true (runs > 0);
      Alcotest.(check (list string))
        (Printf.sprintf "registrations at %d domains" domains)
        [] failures)
    [ 1; 4 ]

(* Two domains run one cached plan at once; each run equals the
   sequential one, its per-node row counts and memo counts included. *)
let test_two_domains_one_plan () =
  List.iter
    (fun domains ->
      let old_size = Pool.size () in
      Pool.set_size domains;
      Fun.protect ~finally:(fun () -> Pool.set_size old_size) @@ fun () ->
      let e = Diagres_ra.Parser.parse concurrent_src in
      let plan, _ = Plan_cache.find_or_plan concurrent_db e in
      let r0, p0 = Plan.run_profiled plan in
      let counts prof =
        Plan.fold_unique (fun n acc -> (n.Plan.id, Plan.rows prof n) :: acc)
          plan []
      in
      let c0 = counts p0 in
      let check_runs k =
        List.filter_map
          (fun i ->
            let r, p = Plan.run_profiled plan in
            if not (R.same_rows r0 r) then
              Some (Printf.sprintf "#%d: result differs" i)
            else if counts p <> c0 then
              Some (Printf.sprintf "#%d: per-node rows differ" i)
            else if
              Plan.total_evals p <> Plan.total_evals p0
              || Plan.total_hits p <> Plan.total_hits p0
            then Some (Printf.sprintf "#%d: memo counts differ" i)
            else None)
          (List.init k Fun.id)
      in
      let d = Domain.spawn (fun () -> check_runs 100) in
      let mine = check_runs 100 in
      let theirs = Domain.join d in
      Alcotest.(check (list string))
        (Printf.sprintf "runs at %d domains" domains)
        [] (mine @ theirs))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Randomized update-stream differential.                              *)

let fuzz_n =
  match Sys.getenv_opt "DIAGRES_FUZZ_N" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 60)
  | None -> 60

let domains_list =
  match Sys.getenv_opt "DIAGRES_DOMAINS" with
  | Some s -> ( try [ max 1 (int_of_string (String.trim s)) ] with _ -> [ 1; 4 ])
  | None -> [ 1; 4 ]

let test_update_stream_differential () =
  let st = Random.State.make [| 0xde17a; 2026 |] in
  let schemas = Testutil.schemas in
  for i = 1 to fuzz_n do
    let e = Q.gen_ra st schemas 3 in
    let seed = 1000 + i in
    List.iter
      (fun domains ->
        List.iter
          (fun columnar ->
            forcing ~columnar domains (fun () ->
                let db =
                  ref
                    (D.Generator.sailors_db ~n_sailors:8 ~n_boats:4
                       ~n_reserves:16 seed)
                in
                let plan = Planner.plan !db e in
                let view = Delta.init plan in
                let r = D.Generator.rng seed in
                for round = 1 to 3 do
                  let changes = D.Generator.update_batch ~frac:0.3 r !db in
                  let db', applied = D.Database.apply_delta changes !db in
                  db := db';
                  let rep = Delta.maintain view applied in
                  let naive = Eval.eval !db e in
                  if not (R.same_rows naive rep.Delta.result) then
                    Alcotest.failf
                      "#%d round %d (%d domains, columnar=%b): maintained \
                       diverges from naive:\n\
                       %s"
                      i round domains columnar (Diagres_ra.Pretty.ascii e)
                done)
              )
          [ true; false ])
      domains_list
  done

let () =
  Alcotest.run "delta"
    [ ( "batch-merge",
        [ Alcotest.test_case "merge set-ops = row reference" `Quick
            test_merge_setops;
          Alcotest.test_case "nullary merges" `Quick test_merge_nullary ] );
      ( "apply-delta",
        [ Alcotest.test_case "normalization" `Quick
            test_apply_delta_normalizes ] );
      ( "retraction",
        [ Alcotest.test_case "projection support counts" `Quick
            test_project_support_counts;
          Alcotest.test_case "union membership probes" `Quick
            test_union_retraction;
          Alcotest.test_case "division dividend/divisor deltas" `Quick
            test_division_view ] );
      ( "plan-sharing",
        [ Alcotest.test_case "maintenance survives ad-hoc Plan.run" `Quick
            test_plan_cache_sharing ] );
      ( "concurrent",
        [ Alcotest.test_case "registration while another domain runs the plan"
            `Quick test_register_during_concurrent_runs;
          Alcotest.test_case "two domains run one cached plan" `Quick
            test_two_domains_one_plan ] );
      ( "cached-index",
        [ Alcotest.test_case "delta joins reuse the stable side's index"
            `Quick test_delta_join_reuses_cached_index ] );
      ( "differential",
        [ Alcotest.test_case "update streams: maintained = naive" `Slow
            test_update_stream_differential ] ) ]
