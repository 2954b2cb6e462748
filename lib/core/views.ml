(** Registered (materialized) views: named queries whose results — and
    diagrams — are kept current under insert/delete batches by the
    differential evaluator ({!Diagres_ra.Delta}) instead of re-running
    their plans.

    A registry owns a database plus the registered views.  {!register}
    parses the query in any supported language, lowers it to RA, plans it
    through the shared LRU plan cache ({!Diagres_ra.Plan_cache}) — the
    registered plan is the {e same object} any ad-hoc
    {!Diagres_ra.Eval.eval_planned} of that query gets served (plans are
    immutable, so all differential state lives with the view) — runs it
    once, and (optionally) renders the query's diagram.
    {!update} applies batches through {!Diagres_data.Database.apply_delta}
    and propagates the normalized deltas through every registered view.

    Diagrams depend only on the query, not the data, so a view's rendering
    is produced once at registration; {!snapshot} pairs it with the
    maintained result of the moment. *)

module D = Diagres_data
module R = D.Relation
module Ra = Diagres_ra

exception Unknown_view of string

type view = {
  name : string;
  lang : Languages.lang;
  source : string;
  query : Languages.query;
  ra : Ra.Ast.t;
  plan : Ra.Plan.t;  (** shared with the plan cache (immutable) *)
  delta : Ra.Delta.t;
  rendering : Pipeline.rendering option;
  mutable generation : int;  (** update batches applied *)
}

type t = {
  mutable db : D.Database.t;
  mutable views : (string * view) list;  (** in registration order *)
}

(** Per-view outcome of one {!update} batch. *)
type update_stats = {
  view : string;
  inserts : int;  (** rows entering the maintained result *)
  deletes : int;  (** rows leaving it *)
  result_size : int;
}

let create db = { db; views = [] }
let database t = t.db
let views t = t.views
let find_opt t name = List.assoc_opt name t.views

let find t name =
  match find_opt t name with Some v -> v | None -> raise (Unknown_view name)

let schemas_of db =
  List.map (fun (n, r) -> (n, R.schema r)) (D.Database.relations db)

(** Parse, lower to RA, plan (through the LRU plan cache), run once, and
    start maintaining.  [formalism] additionally renders the query's
    diagram, kept alongside the maintained result.  Re-registering a name
    replaces the old view. *)
let register ?formalism t ~name ~lang ~source : view =
  let query = Languages.parse lang source in
  let schemas = schemas_of t.db in
  let ra = Languages.to_ra schemas query in
  ignore
    (Ra.Typecheck.infer (Ra.Typecheck.env_of_database t.db) ra);
  let plan, _cached = Ra.Plan_cache.find_or_plan t.db ra in
  let delta = Ra.Delta.init plan in
  let rendering =
    Option.map (fun f -> Pipeline.visualize schemas query f) formalism
  in
  let v =
    { name; lang; source; query; ra; plan; delta; rendering; generation = 0 }
  in
  t.views <- List.remove_assoc name t.views @ [ (name, v) ];
  v

let unregister t name = t.views <- List.remove_assoc name t.views
let result (v : view) : R.t = Ra.Delta.result v.delta

(** Apply [(relation, inserts, deletes)] batches to the database and
    propagate the normalized deltas through every registered view.
    Raises {!Diagres_data.Database.Unknown_relation}. *)
let update t (changes : (string * R.t * R.t) list) : update_stats list =
  let db', applied = D.Database.apply_delta changes t.db in
  t.db <- db';
  List.map
    (fun (vname, v) ->
      let rep = Ra.Delta.maintain v.delta applied in
      v.generation <- v.generation + 1;
      { view = vname;
        inserts = rep.Ra.Delta.root_inserts;
        deletes = rep.Ra.Delta.root_deletes;
        result_size = R.cardinality rep.Ra.Delta.result })
    t.views

(** Recompute the view from scratch against the current database (fresh
    plan — the database stamp changed, so this never reuses the view's
    plan entry) and compare with the maintained result. *)
let verify t (v : view) : bool =
  R.same_rows (result v) (Ra.Eval.eval_planned t.db v.ra)

(** The view's diagram (as rendered at registration) plus its maintained
    result and generation — what a UI would repaint after an update. *)
let snapshot (v : view) : Pipeline.rendering option * R.t * int =
  (v.rendering, result v, v.generation)

(* ---------------- memory gauges ---------------- *)

module T = Diagres_telemetry.Telemetry

let g_relations = T.gauge "memory_bytes.relations"
let g_index_cache = T.gauge "memory_bytes.index_cache"
let g_stats_cache = T.gauge "memory_bytes.stats_cache"
let g_delta_state = T.gauge "memory_bytes.delta_state"
let g_plan_entries = T.gauge "plan_cache.entries"

(** Recompute the [memory_bytes.*] gauges: relation storage (all
    materialized views of every relation), the stamp-owned index and
    statistics caches, and the differential state of [views] — plus the
    [plan_cache.entries] count (cached plans hold no results, so they
    have no bytes gauge).  Also drops one sample per gauge onto
    the trace's counter tracks when tracing is on, so [--trace-json]
    output carries a memory timeline. *)
let refresh_memory_gauges ?(views : view list = []) (db : D.Database.t) :
    unit =
  let rel, idx, st =
    List.fold_left
      (fun (r, i, s) (_, relation) ->
        let ib, sb = R.caches_memory_bytes relation in
        (r + R.memory_bytes relation, i + ib, s + sb))
      (0, 0, 0) (D.Database.relations db)
  in
  T.set_gauge g_relations rel;
  T.set_gauge g_index_cache idx;
  T.set_gauge g_stats_cache st;
  T.set_gauge g_plan_entries (Ra.Plan_cache.length ());
  T.set_gauge g_delta_state
    (List.fold_left (fun acc v -> acc + Ra.Delta.memory_bytes v.delta) 0 views);
  T.sample_all_gauges ()

(** {!refresh_memory_gauges} over a registry: its database plus every
    registered view's differential state. *)
let refresh_gauges (t : t) : unit =
  refresh_memory_gauges ~views:(List.map snd t.views) t.db
