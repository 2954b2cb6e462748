(** Principles of query visualization (Part 2; Gatterbauer et al., DEBull
    2022 [27], recast in Algebraic-Visualization-Design terms [37]) as
    executable checks.

    The principles are objectives, not axioms; each check returns evidence
    rather than a bare Boolean where that is more informative.

    - {b P1 Invertibility} (no information loss): the diagram determines
      the query up to pattern equivalence.
    - {b P2 Unambiguity}: one diagram, one reading — alternative reading
      conventions must agree.
    - {b P3 Correspondence}: queries with the same relational pattern get
      the same diagram; pattern differences show as diagram differences.
    - {b P4 Economy}: the visual alphabet in use should be small; we count
      distinct mark and link roles.
    - {b P5 Pattern faithfulness}: diagram complexity should track pattern
      complexity (monotone in variables/predicates/negation depth). *)

module T = Diagres_rc.Trc
module RD = Diagres_diagrams.Relational_diagram
module Scene = Diagres_diagrams.Scene

type verdict = { principle : string; holds : bool; evidence : string }

(** P1 for Relational Diagrams: regenerate the query from the diagram and
    compare patterns. *)
let invertibility_rd (q : T.query) : verdict =
  let rd = RD.of_trc q in
  let back = List.hd (RD.to_trc rd) in
  let holds = Pattern.same_pattern q back in
  {
    principle = "P1 invertibility (Relational Diagram)";
    holds;
    evidence =
      if holds then "diagram → TRC reproduces the source pattern"
      else
        Printf.sprintf "pattern changed: %s vs %s"
          (Pattern.canonical_string `Literal q)
          (Pattern.canonical_string `Literal back);
  }

(** P2 for beta graphs: outermost vs innermost ligature readings must agree
    on a reference database.  Crossing ligatures are exactly the marks that
    put this principle at risk (the tutorial's "imperfect mapping"). *)
let unambiguity_beta db (sentence : Diagres_logic.Fol.t) : verdict =
  let g = Diagres_diagrams.Eg_beta.of_drc sentence in
  let outer = Diagres_diagrams.Eg_beta.to_drc g in
  let inner = Diagres_diagrams.Eg_beta.to_drc_innermost g in
  let agree =
    Diagres_rc.Drc_to_ra.eval_sentence db outer
    = Diagres_rc.Drc_to_ra.eval_sentence db inner
  in
  let crossings = Diagres_diagrams.Eg_beta.crossing_ligatures g in
  {
    principle = "P2 unambiguity (beta graph readings)";
    holds = agree;
    evidence =
      Printf.sprintf "%d ligatures cross cuts; readings %s"
        (List.length crossings)
        (if agree then "agree on this database" else "DISAGREE");
  }

(** P3: two pattern-equal queries must produce scenes with identical
    statistics (a necessary condition for isomorphic diagrams). *)
let correspondence_rd (q1 : T.query) (q2 : T.query) : verdict =
  let stats q = List.hd (RD.stats (RD.of_trc q)) in
  let same_pattern = Pattern.same_pattern ~abstraction:`Shape q1 q2 in
  let same_stats = stats q1 = stats q2 in
  {
    principle = "P3 correspondence (pattern ↔ diagram)";
    holds = (not same_pattern) || same_stats;
    evidence =
      Printf.sprintf "patterns %s, diagram statistics %s"
        (if same_pattern then "equal" else "differ")
        (if same_stats then "equal" else "differ");
  }

(** P4: visual-alphabet size of a scene. *)
let economy (scene : Scene.t) : verdict =
  let mark_roles =
    List.sort_uniq compare
      (List.map
         (function
           | Scene.Box b -> b.Scene.role
           | Scene.Leaf l -> l.role)
         (Scene.all_marks scene))
  in
  let link_roles =
    List.sort_uniq compare
      (List.map (fun l -> l.Scene.link_role) scene.Scene.links)
  in
  let n = List.length mark_roles + List.length link_roles in
  {
    principle = "P4 economy (alphabet size)";
    holds = n <= 6;
    evidence = Printf.sprintf "%d mark roles + %d link roles" (List.length mark_roles) (List.length link_roles);
  }

(** P5: scene complexity grows monotonically with pattern complexity along
    a query chain (caller provides the chain, e.g. Q1 ⊂ Q2 ⊂ Q3). *)
let faithfulness_rd (chain : T.query list) : verdict =
  let sizes =
    List.map
      (fun q ->
        let s = List.hd (RD.stats (RD.of_trc q)) in
        s.Scene.boxes + s.Scene.links)
      chain
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  {
    principle = "P5 pattern faithfulness";
    holds = monotone sizes;
    evidence =
      Printf.sprintf "diagram sizes along chain: %s"
        (String.concat " ≤ " (List.map string_of_int sizes));
  }

let verdict_to_string v =
  Printf.sprintf "[%s] %s — %s"
    (if v.holds then "ok" else "VIOLATED")
    v.principle v.evidence
