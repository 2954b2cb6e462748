(** Static checks: arity consistency, safety (range restriction), absence of
    recursion, comparison typing, and stratification of negation.

    For non-recursive programs every stratification exists trivially; we
    still compute strata (the maximum number of negations on any dependency
    path) because the tutorial's QBE comparison counts "logical steps". *)

module Diag = Diagres_diag.Diag

exception Check_error = Diag.Error

let err ?hints ?needle code fmt =
  Diag.error ?hints ?needle ~code ~phase:Diag.Resolve fmt

(** Predicate dependency edges: head → body predicate, tagged with whether
    the dependency is through a negation. *)
let edges (p : Ast.program) =
  List.concat_map
    (fun (r : Ast.rule) ->
      List.filter_map
        (function
          | Ast.Pos a -> Some (r.Ast.head.Ast.pred, a.Ast.pred, false)
          | Ast.Neg a -> Some (r.Ast.head.Ast.pred, a.Ast.pred, true)
          | Ast.Cond _ -> None)
        r.Ast.body)
    p

(** Raise on recursion (any cycle through IDB predicates). *)
let check_nonrecursive (p : Ast.program) =
  let idb = Ast.idb_preds p in
  let es = edges p in
  let succs n =
    List.filter_map
      (fun (a, b, _) -> if a = n && List.mem b idb then Some b else None)
      es
  in
  let rec visit path n =
    if List.mem n path then
      err "E-DLG-CHECK-004" ~needle:n
        "recursion through predicate %S (cycle: %s)" n
        (String.concat " -> " (List.rev (n :: path)))
    else List.iter (visit (n :: path)) (succs n)
  in
  List.iter (visit []) idb

(** Safety: every head variable and every variable of a negative literal or
    condition must occur in some positive body literal. *)
let check_safety (p : Ast.program) =
  List.iter
    (fun (r : Ast.rule) ->
      let positive =
        List.concat_map
          (function Ast.Pos a -> Ast.atom_vars a | _ -> [])
          r.Ast.body
      in
      let need v where =
        if not (List.mem v positive) then
          Diag.error ~code:"E-DLG-CHECK-003" ~phase:Diag.Safety ~needle:v
            "unsafe rule %S: variable %s in %s is not bound by a \
             positive literal"
            (Ast.rule_to_string r) v where
      in
      List.iter (fun v -> need v "the head") (Ast.atom_vars r.Ast.head);
      List.iter
        (function
          | Ast.Neg a -> List.iter (fun v -> need v "a negated literal") (Ast.atom_vars a)
          | Ast.Cond (_, x, y) ->
            List.iter
              (fun v -> need v "a condition")
              (Ast.term_vars x @ Ast.term_vars y)
          | Ast.Pos _ -> ())
        r.Ast.body)
    p

(** Arity consistency against the database schemas and across rules.
    Returns the full predicate→arity table (EDB and IDB). *)
let check_arities schemas (p : Ast.program) =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, s) -> Hashtbl.replace table name (Diagres_data.Schema.arity s))
    schemas;
  let check_atom (a : Ast.atom) =
    match Hashtbl.find_opt table a.Ast.pred with
    | Some n ->
      if n <> List.length a.Ast.args then
        Diag.error ~code:"E-DLG-CHECK-002" ~phase:Diag.Type
          ~needle:a.Ast.pred
          "predicate %S used with arity %d, expected %d" a.Ast.pred
          (List.length a.Ast.args) n
    | None -> Hashtbl.replace table a.Ast.pred (List.length a.Ast.args)
  in
  (* heads first so IDB arities are seeded by definitions *)
  List.iter (fun (r : Ast.rule) -> check_atom r.Ast.head) p;
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (function Ast.Pos a | Ast.Neg a -> check_atom a | Ast.Cond _ -> ())
        r.Ast.body)
    p;
  (* every positive/negative body predicate must be EDB or defined *)
  let idb = Ast.idb_preds p in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (function
          | Ast.Pos a | Ast.Neg a ->
            if (not (List.mem_assoc a.Ast.pred schemas)) && not (List.mem a.Ast.pred idb)
            then
              err "E-DLG-CHECK-001" ~needle:a.Ast.pred
                ~hints:
                  (Diag.did_you_mean
                     ~candidates:(List.map fst schemas @ idb)
                     a.Ast.pred)
                "undefined predicate %S" a.Ast.pred
          | Ast.Cond _ -> ())
        r.Ast.body)
    p;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []

(** Stratum of each IDB predicate: EDB is stratum 0; a predicate's stratum
    is ≥ its positive dependencies and > its negative ones. *)
let strata (p : Ast.program) : (string * int) list =
  check_nonrecursive p;
  let idb = Ast.idb_preds p in
  let es = edges p in
  let memo = Hashtbl.create 16 in
  let rec stratum n =
    if not (List.mem n idb) then 0
    else
      match Hashtbl.find_opt memo n with
      | Some s -> s
      | None ->
        let deps =
          List.filter_map
            (fun (a, b, neg) -> if a = n then Some (b, neg) else None)
            es
        in
        let s =
          List.fold_left
            (fun acc (b, neg) ->
              max acc (stratum b + if neg then 1 else 0))
            0 deps
        in
        Hashtbl.replace memo n s;
        s
  in
  List.map (fun n -> (n, stratum n)) idb

(** Topological evaluation order of IDB predicates (dependencies first). *)
let eval_order (p : Ast.program) : string list =
  check_nonrecursive p;
  let idb = Ast.idb_preds p in
  let es = edges p in
  let deps n =
    List.filter_map
      (fun (a, b, _) -> if a = n && List.mem b idb then Some b else None)
      es
  in
  let visited = ref [] in
  let rec visit n =
    if not (List.mem n !visited) then begin
      List.iter visit (deps n);
      visited := !visited @ [ n ]
    end
  in
  List.iter visit idb;
  !visited

(** Comparison typing, as {!Diagres_rc.Drc.typecheck} does for DRC: a
    variable takes the column type of the EDB positions it occupies and,
    for IDB positions, the type the predicate's rule heads give that
    column; it is [Tany] when there is none or they disagree.  A condition
    whose operand types fail {!Diagres_data.Value.ty_compatible} raises
    [E-DLG-TYPE-001].  IDB columns are typed on demand, dependencies
    first, so this must run after the arity and recursion checks. *)
let check_types schemas (p : Ast.program) =
  let module V = Diagres_data.Value in
  let agreed = function
    | t :: ts when List.for_all (( = ) t) ts -> t
    | _ -> V.Tany
  in
  let idb = ref [] (* IDB column types computed so far *) in
  let rec column_types pred =
    match List.assoc_opt pred !idb with
    | Some tys -> tys
    | None -> (
      match Ast.rules_for p pred with
      | [] ->
        List.map
          (fun (a : Diagres_data.Schema.attribute) -> a.ty)
          (List.assoc pred schemas)
      | r :: _ as rules ->
        let heads =
          List.map (fun r -> List.map (term_ty r) r.Ast.head.Ast.args) rules
        in
        let tys =
          List.mapi
            (fun i _ -> agreed (List.map (fun h -> List.nth h i) heads))
            r.Ast.head.Ast.args
        in
        idb := (pred, tys) :: !idb;
        tys)
  and term_ty (r : Ast.rule) = function
    | Ast.Const c -> V.type_of c
    | Ast.Var x ->
      agreed
        (List.concat_map
           (function
             | Ast.Pos a | Ast.Neg a ->
               List.concat
                 (List.map2
                    (fun t ty ->
                      if t = Ast.Var x && ty <> V.Tany then [ ty ] else [])
                    a.Ast.args (column_types a.Ast.pred))
             | Ast.Cond _ -> [])
           r.Ast.body)
  in
  List.iter
    (fun (r : Ast.rule) ->
      List.iter
        (function
          | Ast.Cond (op, x, y) ->
            let tx = term_ty r x and ty = term_ty r y in
            if not (V.ty_compatible tx ty) then
              let needle =
                match (x, y) with
                | Ast.Var v, _ | _, Ast.Var v -> v
                | _ -> Ast.term_to_string y
              in
              Diag.error ~code:"E-DLG-TYPE-001" ~phase:Diag.Type ~needle
                "cannot compare %s (of type %s) %s %s (of type %s): operand \
                 types are incompatible"
                (Ast.term_to_string x) (V.ty_name tx)
                (Diagres_logic.Fol.cmp_name op)
                (Ast.term_to_string y) (V.ty_name ty)
          | Ast.Pos _ | Ast.Neg _ -> ())
        r.Ast.body)
    p

(** Run all checks; returns the arity table. *)
let check_program schemas (p : Ast.program) =
  if p = [] then err "E-DLG-CHECK-005" "empty program";
  let arities = check_arities schemas p in
  check_safety p;
  check_nonrecursive p;
  check_types schemas p;
  arities
