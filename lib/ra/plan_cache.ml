(** A bounded LRU cache of compiled physical plans.

    The serving scenario the ROADMAP targets — the same handful of queries
    arriving millions of times — spends a fixed few hundred microseconds
    per call on logical rewrites, statistics, and planning before touching
    a single tuple.  This cache amortizes that: plans are keyed by
    {b (canonicalized logical AST, database stamp)} and reused verbatim,
    so a repeated query skips optimize + plan entirely and goes straight
    to execution.  Plans are immutable and every {!Plan.run} keeps its
    results in its own profile, so a cached plan holds no results and
    may serve several callers, on several domains, at once.

    - {b Canonicalization} ({!canonical}) normalizes the commutative parts
      of predicates — conjunct/disjunct operand order, constants moved to
      the right of comparisons via {!Diagres_logic.Fol.cmp_flip} — so
      trivially re-phrased queries ([σ_{3 < x}] vs [σ_{x > 3}]) share one
      entry.  Set-operation operands are {e not} reordered: union's output
      schema takes the left operand's attribute names, so commuting them
      is observable.

    - {b The database stamp} ({!Diagres_data.Database.stamp}) hashes every
      relation's name, {!Diagres_data.Relation.stamp}, and attribute
      names.  A plan embeds its scan relations, so reuse is only sound
      against the very same tuple sets — rebinding any name to a rebuilt
      relation changes the stamp and misses the cache.

    - {b Eviction} is least-recently-used over a fixed capacity
      ({!set_capacity}, default 256 entries).

    Hit/miss accounting lives on the telemetry counter registry
    ([plan_cache.hit] / [plan_cache.miss] / [plan_cache.evictions]), so
    the numbers are queryable from [qviz stats] and accumulate across a
    whole batch of queries instead of being private to one [--explain]
    invocation; {!stats} reads the same counters. *)

module D = Diagres_data
module F = Diagres_logic.Fol
module T = Diagres_telemetry.Telemetry

(* ---------------- canonicalization ---------------- *)

let rec canonical_pred (p : Ast.pred) : Ast.pred =
  match p with
  | Ast.Cmp (op, Ast.Const c, Ast.Attr a) ->
    Ast.Cmp (F.cmp_flip op, Ast.Attr a, Ast.Const c)
  | Ast.Cmp _ | Ast.Ptrue -> p
  | Ast.And (a, b) ->
    let a = canonical_pred a and b = canonical_pred b in
    if compare a b <= 0 then Ast.And (a, b) else Ast.And (b, a)
  | Ast.Or (a, b) ->
    let a = canonical_pred a and b = canonical_pred b in
    if compare a b <= 0 then Ast.Or (a, b) else Ast.Or (b, a)
  | Ast.Not a -> Ast.Not (canonical_pred a)

(** Normalize the commutative predicate structure of [e]; the expression
    skeleton (operators, operand order of set operations and joins) is kept
    as-is. *)
let rec canonical (e : Ast.t) : Ast.t =
  match e with
  | Ast.Rel _ | Ast.Values _ -> e
  | Ast.Empty c -> Ast.Empty (canonical c)
  | Ast.Select (p, c) -> Ast.Select (canonical_pred p, canonical c)
  | Ast.Project (attrs, c) -> Ast.Project (attrs, canonical c)
  | Ast.Rename (pairs, c) -> Ast.Rename (pairs, canonical c)
  | Ast.Product (a, b) -> Ast.Product (canonical a, canonical b)
  | Ast.Join (a, b) -> Ast.Join (canonical a, canonical b)
  | Ast.Theta_join (p, a, b) ->
    Ast.Theta_join (canonical_pred p, canonical a, canonical b)
  | Ast.Union (a, b) -> Ast.Union (canonical a, canonical b)
  | Ast.Inter (a, b) -> Ast.Inter (canonical a, canonical b)
  | Ast.Diff (a, b) -> Ast.Diff (canonical a, canonical b)
  | Ast.Division (a, b) -> Ast.Division (canonical a, canonical b)

(* ---------------- the LRU table ---------------- *)

type key = { ast : Ast.t; db_stamp : int }

type entry = { plan : Plan.t; mutable last_used : int }

let capacity = ref 256
let table : (key, entry) Hashtbl.t = Hashtbl.create 64
let clock = ref 0
let hits = T.counter "plan_cache.hit"
let misses = T.counter "plan_cache.miss"
let evictions = T.counter "plan_cache.evictions"
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(** Drop every entry (the counters survive; see {!reset_stats}). *)
let clear () = locked (fun () -> Hashtbl.reset table)

let reset_stats () =
  locked (fun () ->
      T.set_counter hits 0;
      T.set_counter misses 0)

(** [(hits, misses)] since the last {!reset_stats} — a view of the
    [plan_cache.*] telemetry counters. *)
let stats () =
  locked (fun () -> (T.counter_value hits, T.counter_value misses))

(** Number of plans currently cached. *)
let length () = locked (fun () -> Hashtbl.length table)

(* Drop least-recently-used entries until at most [n] remain, counting
   each eviction.  Called with the lock held. *)
let evict_to n =
  while Hashtbl.length table > n do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, e') when e'.last_used <= e.last_used -> acc
          | _ -> Some (k, e))
        table None
    in
    Option.iter (fun (k, _) -> Hashtbl.remove table k) victim;
    T.incr evictions
  done

(** Set the maximum number of cached plans (evicting down if needed). *)
let set_capacity n =
  if n < 1 then invalid_arg "Plan_cache.set_capacity: capacity must be >= 1";
  locked (fun () ->
      capacity := n;
      evict_to n)

(** The cached plan for [e] against [db] — planning (via {!Planner.plan},
    logical rewrites included) only on a miss.  Returns the plan and
    whether it was served from the cache. *)
let find_or_plan (db : D.Database.t) (e : Ast.t) : Plan.t * bool =
  let key = { ast = canonical e; db_stamp = D.Database.stamp db } in
  let cached =
    locked (fun () ->
        incr clock;
        match Hashtbl.find_opt table key with
        | Some entry ->
          entry.last_used <- !clock;
          T.incr hits;
          Some entry.plan
        | None ->
          T.incr misses;
          None)
  in
  match cached with
  | Some plan -> (plan, true)
  | None ->
    (* plan outside the lock: planning may be slow and is deterministic,
       so a racing duplicate insert is harmless (last writer wins) *)
    let plan = Planner.plan db e in
    locked (fun () ->
        evict_to (!capacity - 1);
        Hashtbl.replace table key { plan; last_used = !clock });
    (plan, false)
