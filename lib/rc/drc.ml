(** Domain Relational Calculus: first-order logic with free variables
    returning answer relations.

    DRC is the language closest to FOL, hence the bridge between relational
    queries and the century of diagrammatic-reasoning formalisms: Peirce's
    beta existential graphs denote exactly its Boolean fragment.  A query is
    [{ x₁, …, xₖ | φ }] with [free(φ) = {x₁, …, xₖ}].

    This module holds the syntax, the typecheck and the naive active-domain
    evaluator ({!eval_naive}, {!eval_sentence_naive}), the reference
    semantics.  Queries and Boolean sentences run planned through
    {!Drc_to_ra.eval} and {!Drc_to_ra.eval_sentence}. *)

type query = { head : string list; body : Diagres_logic.Fol.t }

module Diag = Diagres_diag.Diag

exception Type_error = Diag.Error

(** Generic DRC type error (used by the translators); {!typecheck} raises
    more specific codes. *)
let type_error fmt =
  Diag.error ~code:"E-DRC-TYPE-000" ~phase:Diag.Type fmt

let query head body = { head; body }

(** Check head/free-variable agreement, predicate arities against the
    database schemas, and the operand types of comparisons.  A variable's
    type is the column type of the atom positions it occupies, and [Tany]
    when there are none or they disagree, so the check is never stricter
    than the typecheck of the query's RA translation. *)
let typecheck (schemas : (string * Diagres_data.Schema.t) list) (q : query) =
  let module F = Diagres_logic.Fol in
  let module V = Diagres_data.Value in
  let err ?hints ?needle code fmt =
    Diag.error ?hints ?needle ~code ~phase:Diag.Type fmt
  in
  let free = F.free_var_list q.body in
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
    (F.predicate_list q.body);
  let occurrences = Hashtbl.create 16 in
  let rec collect = function
    | F.Pred (p, ts) ->
      List.iter2
        (fun t (a : Diagres_data.Schema.attribute) ->
          match t with
          | F.Var x -> Hashtbl.add occurrences x a.ty
          | F.Const _ -> ())
        ts (List.assoc p schemas)
    | F.True | F.False | F.Cmp _ -> ()
    | F.Not f | F.Exists (_, f) | F.Forall (_, f) -> collect f
    | F.And (a, b) | F.Or (a, b) | F.Implies (a, b) ->
      collect a;
      collect b
  in
  collect q.body;
  let term_ty = function
    | F.Const c -> V.type_of c
    | F.Var x -> (
      match Hashtbl.find_all occurrences x with
      | t :: ts when List.for_all (( = ) t) ts -> t
      | _ -> V.Tany)
  in
  let rec check = function
    | F.Cmp (op, a, b) ->
      let ta = term_ty a and tb = term_ty b in
      if not (V.ty_compatible ta tb) then
        err "E-DRC-TYPE-005" ~needle:(Fmt.str "%a" F.pp_term b)
          "cannot compare %a (of type %s) %s %a (of type %s): operand types \
           are incompatible"
          F.pp_term a (V.ty_name ta) (F.cmp_name op) F.pp_term b (V.ty_name tb)
    | F.True | F.False | F.Pred _ -> ()
    | F.Not f | F.Exists (_, f) | F.Forall (_, f) -> check f
    | F.And (a, b) | F.Or (a, b) | F.Implies (a, b) ->
      check a;
      check b
  in
  check q.body

(** Naive active-domain evaluation, after {!typecheck} — quantifiers
    enumerate the universe narrowed only by static column guards.  For
    safe-range queries this agrees with the natural (domain-independent)
    semantics; for unsafe ones it exhibits exactly the domain dependence
    the tutorial discusses around Peirce's beta graphs.  The reference the
    planned path is differentially tested against. *)
let eval_naive (db : Diagres_data.Database.t) (q : query) :
    Diagres_data.Relation.t =
  let module D = Diagres_data in
  let schemas =
    List.map (fun (n, r) -> (n, D.Relation.schema r)) (D.Database.relations db)
  in
  typecheck schemas q;
  let body = Diagres_logic.Fol.miniscope q.body in
  let st = Diagres_logic.Structure.for_formula body db in
  let rows = Diagres_logic.Structure.answers_naive st ~order:q.head body in
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
