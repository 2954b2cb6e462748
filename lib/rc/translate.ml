(** Facade over the translation hexagon between TRC, DRC, and RA.

    Direct arrows: TRC→DRC ({!Trc_to_drc}), DRC→RA ({!Drc_to_ra}),
    RA→DRC ({!Ra_to_drc}), RA→TRC ({!Ra_to_trc}).  The remaining arrows
    compose: TRC→RA = DRC→RA ∘ TRC→DRC, and DRC→TRC = RA→TRC ∘ DRC→RA.
    DRC→RA is range-restricted (the active domain only for unrestricted
    variables), so every composed arrow — and SQL and Datalog, which reach
    RA through it — yields RA that plans like hand-written algebra.
    Every arrow is differential-tested for semantics preservation. *)

type schemas = (string * Diagres_data.Schema.t) list

let trc_to_drc : schemas -> Trc.query -> Drc.query = Trc_to_drc.query

let drc_to_ra : schemas -> Drc.query -> Diagres_ra.Ast.t = Drc_to_ra.query

let ra_to_drc : schemas -> Diagres_ra.Ast.t -> Drc.query = Ra_to_drc.query

let ra_to_trc : schemas -> Diagres_ra.Ast.t -> Trc.query list = Ra_to_trc.queries

let trc_to_ra schemas q = drc_to_ra schemas (trc_to_drc schemas q)

let drc_to_trc schemas q = ra_to_trc schemas (drc_to_ra schemas q)

(** Split TRC queries into single-panel (nested-box-drawable) queries: a
    query whose body hides a disjunction in positive position is re-derived
    through RA, where {!Ra_rewrite} pulls the union to the top.  Queries
    already drawable pass through untouched (keeping their readable
    variable names). *)
let drawable_panels schemas (qs : Trc.query list) : Trc.query list =
  let panels =
    List.concat_map
      (fun (q : Trc.query) ->
        let q = Trc.simplify_types schemas q in
        if Trc.single_panel q.Trc.body then [ q ]
        else
          List.map
            (fun body -> Trc.simplify_types schemas { q with Trc.body })
            (Trc.panel_split q.Trc.body))
      qs
  in
  (* a panel whose body folded to [false] contributes nothing to the union;
     if everything folded away, keep one explicitly empty panel so callers
     still have a well-formed query to print or draw *)
  match List.filter (fun (q : Trc.query) -> q.Trc.body <> Trc.False) panels with
  | [] -> (
    match panels with [] -> [] | p :: _ -> [ { p with Trc.body = Trc.False } ])
  | live -> live

(** Union-free TRC for a DRC query when a single panel suffices. *)
let drc_to_trc_single schemas q =
  match drc_to_trc schemas q with
  | [ single ] -> Some single
  | _ -> None

(** Evaluate a query of any of the three languages to a relation, used by
    the differential tests and the cross-language bench (E1). *)
type any_query =
  | Ra of Diagres_ra.Ast.t
  | Trc of Trc.query
  | Drc of Drc.query

(** DRC evaluates through the planner ({!Drc_to_ra.eval}); TRC on its
    range-restricted evaluator. *)
let eval_any db = function
  | Ra e -> Diagres_ra.Eval.eval_planned db e
  | Trc q -> Trc.eval db q
  | Drc q -> Drc_to_ra.eval db q
