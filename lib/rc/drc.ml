(** Domain Relational Calculus: first-order logic with free variables
    returning answer relations.

    DRC is the language closest to FOL, hence the bridge between relational
    queries and the century of diagrammatic-reasoning formalisms: Peirce's
    beta existential graphs denote exactly its Boolean fragment.  A query is
    [{ x₁, …, xₖ | φ }] with [free(φ) = {x₁, …, xₖ}]. *)

type query = { head : string list; body : Diagres_logic.Fol.t }

module Diag = Diagres_diag.Diag

exception Type_error = Diag.Error

(** Generic DRC type error (used by the translators); {!typecheck} raises
    more specific codes. *)
let type_error fmt =
  Diag.error ~code:"E-DRC-TYPE-000" ~phase:Diag.Type fmt

let query head body = { head; body }

(** Check head/free-variable agreement and predicate arities against the
    database schemas. *)
let typecheck (schemas : (string * Diagres_data.Schema.t) list) (q : query) =
  let err ?hints ?needle code fmt =
    Diag.error ?hints ?needle ~code ~phase:Diag.Type fmt
  in
  let free = Diagres_logic.Fol.free_var_list q.body in
  let head_sorted = List.sort_uniq String.compare q.head in
  (if List.length head_sorted <> List.length q.head then
     let dup =
       List.find
         (fun v -> List.length (List.filter (String.equal v) q.head) > 1)
         q.head
     in
     err "E-DRC-TYPE-001" ~needle:dup "duplicate head variable %S" dup);
  if head_sorted <> free then
    err "E-DRC-TYPE-002"
      "head variables {%s} must equal free variables {%s}"
      (String.concat "," q.head) (String.concat "," free);
  List.iter
    (fun (p, arity) ->
      match List.assoc_opt p schemas with
      | None ->
        err "E-DRC-TYPE-003" ~needle:p
          ~hints:(Diag.did_you_mean ~candidates:(List.map fst schemas) p)
          "unknown relation %S" p
      | Some s ->
        if Diagres_data.Schema.arity s <> arity then
          err "E-DRC-TYPE-004" ~needle:p
            "relation %S used with arity %d, declared %d" p arity
            (Diagres_data.Schema.arity s))
    (Diagres_logic.Fol.predicate_list q.body)

(** Active-domain evaluation.  The body is miniscoped first, which
    rewrites ∀ and ⇒ into ¬∃ and pushes ¬ through ¬/∧/∨, so a guarded
    [∀x(G → H)] becomes [¬∃x(G ∧ ¬H)].  Variables are then bound from the
    atoms that mention them through {!Diagres_logic.Structure.answers}
    (range restriction with index probes); the active domain is built only
    if some variable is genuinely unrestricted.  For safe-range queries this
    agrees with the natural (domain-independent) semantics; for unsafe ones
    it exhibits exactly the domain dependence the tutorial discusses around
    Peirce's beta graphs. *)
let eval (db : Diagres_data.Database.t) (q : query) : Diagres_data.Relation.t =
  let module D = Diagres_data in
  let schemas =
    List.map (fun (n, r) -> (n, D.Relation.schema r)) (D.Database.relations db)
  in
  typecheck schemas q;
  (* miniscoping eliminates ∀/⇒ and keeps the enumeration from exploring
     quantifier blocks irrelevant to each conjunct *)
  let body = Diagres_logic.Fol.miniscope q.body in
  let st = Diagres_logic.Structure.for_formula body db in
  let rows = Diagres_logic.Structure.answers st ~order:q.head body in
  if q.head = [] then
    if Diagres_logic.Structure.eval_sentence st body then
      D.Relation.of_lists [] [ [] ]
    else D.Relation.empty []
  else
    let ty_of_col i =
      match rows with
      | [] -> D.Value.Tint
      | row :: _ -> D.Value.type_of (List.nth row i)
    in
    let schema = List.mapi (fun i x -> D.Schema.attr ~ty:(ty_of_col i) x) q.head in
    D.Relation.of_lists schema rows

let eval_sentence db body =
  let body = Diagres_logic.Fol.miniscope body in
  let st = Diagres_logic.Structure.for_formula body db in
  Diagres_logic.Structure.eval_sentence st body

(** Naive active-domain evaluation — quantifiers enumerate the universe
    narrowed only by static column guards.  The reference implementation
    {!eval} is differentially tested against, and the benchmark baseline. *)
let eval_naive (db : Diagres_data.Database.t) (q : query) :
    Diagres_data.Relation.t =
  let module D = Diagres_data in
  let body = Diagres_logic.Fol.miniscope q.body in
  let st = Diagres_logic.Structure.for_formula body db in
  let rows = Diagres_logic.Structure.answers_naive st ~order:q.head body in
  if q.head = [] then
    if Diagres_logic.Structure.eval_sentence_naive st body then
      D.Relation.of_lists [] [ [] ]
    else D.Relation.empty []
  else
    let ty_of_col i =
      match rows with
      | [] -> D.Value.Tint
      | row :: _ -> D.Value.type_of (List.nth row i)
    in
    let schema = List.mapi (fun i x -> D.Schema.attr ~ty:(ty_of_col i) x) q.head in
    D.Relation.of_lists schema rows

let eval_sentence_naive db body =
  let body = Diagres_logic.Fol.miniscope body in
  let st = Diagres_logic.Structure.for_formula body db in
  Diagres_logic.Structure.eval_sentence_naive st body

(* -------------------------------------------------------------------- *)
(* Concrete syntax. *)

let to_string q =
  Printf.sprintf "{ %s | %s }"
    (String.concat ", " q.head)
    (Diagres_logic.Fol.to_string q.body)

let pp ppf q = Fmt.string ppf (to_string q)
