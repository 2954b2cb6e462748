(** Random well-typed query generation — the engine of the cross-language
    roundtrip fuzz harness.

    Each generator draws from an explicit [Random.State.t] so a fixed seed
    reproduces the exact query sequence, and only produces queries that are
    well-typed over the given schemas (in particular, every comparison has
    compatible operand types — the strict typecheckers reject anything
    else).  The generated fragment is the tutorial's: conjunctive bodies
    with constants, joins, nested (possibly negated) existential blocks,
    and an occasional disjunction to exercise panel splitting/merging. *)

module D = Diagres_data
module T = Diagres_rc.Trc
module F = Diagres_logic.Fol
module Sq = Diagres_sql.Ast
module Dl = Diagres_datalog.Ast
module Ra = Diagres_ra.Ast

type schemas = (string * D.Schema.t) list

let pick st l = List.nth l (Random.State.int st (List.length l))
let chance st p = Random.State.float st 1.0 < p

let ops_all = F.[ Eq; Neq; Lt; Le; Gt; Ge ]

(** A constant matching a column's static type. *)
let typed_const st (ty : D.Value.ty) : D.Value.t =
  match ty with
  | D.Value.Tint -> D.Value.Int (Random.State.int st 120)
  | D.Value.Tfloat -> D.Value.Float (float_of_int (Random.State.int st 60))
  | D.Value.Tstring ->
    (* includes a quote-bearing name to exercise doubled-quote escapes *)
    D.Value.String
      (pick st [ "red"; "green"; "blue"; "a"; "d1"; "O'Brien" ])
  | D.Value.Tbool -> D.Value.Bool (Random.State.bool st)
  | D.Value.Tany ->
    if Random.State.bool st then D.Value.Int (Random.State.int st 120)
    else D.Value.String "red"

(* ------------------------------------------------------------------ *)
(* TRC: the hub language.                                              *)

let gen_trc ?(max_ranges = 2) ?(depth = 2) st (schemas : schemas) : T.query =
  let fresh = ref 0 in
  let new_var () =
    incr fresh;
    Printf.sprintf "t%d" !fresh
  in
  let field scope =
    let v, r = pick st scope in
    let (a : D.Schema.attribute) = pick st (List.assoc r schemas) in
    (T.Field (v, a.D.Schema.name), a.D.Schema.ty)
  in
  (* a comparison whose operands have compatible types: field vs constant,
     or field vs another in-scope field of compatible type *)
  let cmp_atom scope =
    let f, ty = field scope in
    let partner =
      if chance st 0.5 then
        let candidates =
          List.concat_map
            (fun (v, r) ->
              List.filter_map
                (fun (a : D.Schema.attribute) ->
                  if D.Value.ty_compatible a.D.Schema.ty ty then
                    Some (T.Field (v, a.D.Schema.name))
                  else None)
                (List.assoc r schemas))
            scope
        in
        match candidates with [] -> None | l -> Some (pick st l)
      else None
    in
    let rhs =
      match partner with
      | Some t -> t
      | None -> T.Const (typed_const st ty)
    in
    T.Cmp (pick st ops_all, f, rhs)
  in
  let rec body scope depth =
    let atoms =
      List.init (1 + Random.State.int st 2) (fun _ -> cmp_atom scope)
    in
    let nested =
      if depth > 0 && chance st 0.6 then begin
        let v = new_var () in
        let r = fst (pick st schemas) in
        let inner = body ((v, r) :: scope) (depth - 1) in
        let q = T.Exists ([ (v, r) ], inner) in
        [ (if chance st 0.3 then T.Not q else q) ]
      end
      else []
    in
    let conj = T.conj (atoms @ nested) in
    if depth > 0 && chance st 0.15 then T.Or (conj, cmp_atom scope)
    else conj
  in
  let ranges =
    List.init
      (1 + Random.State.int st max_ranges)
      (fun _ -> (new_var (), fst (pick st schemas)))
  in
  let head =
    List.sort_uniq compare
      (List.init (1 + Random.State.int st 2) (fun _ -> fst (field ranges)))
  in
  { T.head; ranges; body = body ranges depth }

(** DRC queries come from TRC through the standard translation, which
    yields exactly the dot-chained-[exists] shapes whose roundtrip used to
    be broken.  [max_ranges]/[depth] bound the TRC shape: the naive DRC
    oracle enumerates the active domain, adom^k in the number of column
    variables, so equivalence checks want shallow queries while
    print->parse identity can afford deep ones. *)
let gen_drc ?max_ranges ?depth st (schemas : schemas) : Diagres_rc.Drc.query =
  Diagres_rc.Translate.trc_to_drc schemas
    (gen_trc ?max_ranges ?depth st schemas)

(* ------------------------------------------------------------------ *)
(* SQL: SELECT–FROM–WHERE with correlated (NOT) EXISTS.                *)

let gen_sql st (schemas : schemas) : Sq.statement =
  let fresh = ref 0 in
  let tref () =
    incr fresh;
    { Sq.name = fst (pick st schemas); alias = Printf.sprintf "a%d" !fresh }
  in
  let col_of scope =
    let t = pick st scope in
    let (a : D.Schema.attribute) = pick st (List.assoc t.Sq.name schemas) in
    ( Sq.Col { Sq.table = Some t.Sq.alias; column = a.D.Schema.name },
      a.D.Schema.ty )
  in
  let cmp scope =
    let e, ty = col_of scope in
    let partner =
      if chance st 0.5 then
        let candidates =
          List.concat_map
            (fun t ->
              List.filter_map
                (fun (a : D.Schema.attribute) ->
                  if D.Value.ty_compatible a.D.Schema.ty ty then
                    Some
                      (Sq.Col
                         { Sq.table = Some t.Sq.alias;
                           column = a.D.Schema.name })
                  else None)
                (List.assoc t.Sq.name schemas))
            scope
        in
        match candidates with [] -> None | l -> Some (pick st l)
      else None
    in
    let rhs =
      match partner with Some e -> e | None -> Sq.Lit (typed_const st ty)
    in
    Sq.Cmp (pick st ops_all, e, rhs)
  in
  let rec query outer depth : Sq.query =
    let from = List.init (1 + Random.State.int st 2) (fun _ -> tref ()) in
    let scope = from @ outer in
    let conds =
      List.init (1 + Random.State.int st 2) (fun _ -> cmp scope)
    in
    let sub =
      if depth > 0 && chance st 0.5 then
        let q = query scope (depth - 1) in
        [ (if chance st 0.4 then Sq.Not (Sq.Exists q) else Sq.Exists q) ]
      else []
    in
    let conds =
      match conds @ sub with
      | [] -> Sq.True
      | c :: cs -> List.fold_left (fun a b -> Sq.And (a, b)) c cs
    in
    let select =
      List.init
        (1 + Random.State.int st 2)
        (fun _ -> fst (col_of from))
      |> List.sort_uniq compare
      |> List.map (fun e -> Sq.Item (e, None))
    in
    { Sq.distinct = chance st 0.7; select; from; where = conds }
  in
  Sq.Query (query [] 2)

(* ------------------------------------------------------------------ *)
(* Datalog: one safe, non-recursive rule (plus the occasional negated
   EDB literal), goal predicate [q].                                    *)

let gen_datalog st (schemas : schemas) : Dl.program =
  let fresh = ref 0 in
  (* positive atoms: fresh variables, typed by schema position *)
  let atom_of (name, schema) =
    List.map
      (fun (a : D.Schema.attribute) ->
        incr fresh;
        (Printf.sprintf "X%d" !fresh, a.D.Schema.ty))
      schema
    |> fun vars -> (name, vars)
  in
  let atoms =
    List.init (1 + Random.State.int st 2) (fun _ -> atom_of (pick st schemas))
  in
  (* unify a few compatible variable pairs to create joins *)
  let all_vars = List.concat_map snd atoms in
  let renames = Hashtbl.create 8 in
  List.iteri
    (fun i (x, tx) ->
      List.iteri
        (fun j (y, ty) ->
          if i < j && tx = ty && not (Hashtbl.mem renames y) && chance st 0.2
          then Hashtbl.replace renames y x)
        all_vars)
    all_vars;
  let subst x = try Hashtbl.find renames x with Not_found -> x in
  let body_atoms =
    List.map
      (fun (name, vars) ->
        Dl.Pos (Dl.atom name (List.map (fun (x, _) -> Dl.Var (subst x)) vars)))
      atoms
  in
  let bound = List.map (fun (x, t) -> (subst x, t)) all_vars in
  let conds =
    List.init (Random.State.int st 2) (fun _ ->
        let x, t = pick st bound in
        Dl.Cond (pick st ops_all, Dl.Var x, Dl.Const (typed_const st t)))
  in
  let neg =
    if chance st 0.3 then begin
      let name, schema = pick st schemas in
      let args =
        List.map
          (fun (a : D.Schema.attribute) ->
            let compatible =
              List.filter (fun (_, t) -> t = a.D.Schema.ty) bound
            in
            match compatible with
            | [] -> Dl.Const (typed_const st a.D.Schema.ty)
            | l -> if chance st 0.7 then Dl.Var (fst (pick st l))
                   else Dl.Const (typed_const st a.D.Schema.ty)
          )
          schema
      in
      [ Dl.Neg (Dl.atom name args) ]
    end
    else []
  in
  let head_vars =
    let n = 1 + Random.State.int st 2 in
    List.sort_uniq compare (List.init n (fun _ -> fst (pick st bound)))
  in
  [ { Dl.head = Dl.atom "q" (List.map (fun x -> Dl.Var x) head_vars);
      body = body_atoms @ neg @ conds } ]

(* ------------------------------------------------------------------ *)
(* RA: well-typed algebra over the base relations.                      *)

let rec gen_ra st (schemas : schemas) fuel : Ra.t =
  let base () = Ra.Rel (fst (pick st schemas)) in
  if fuel <= 0 then base ()
  else
    let e = gen_ra st schemas (fuel - 1) in
    let schema = Diagres_ra.Typecheck.infer schemas e in
    let attr () = (pick st schema : D.Schema.attribute) in
    match Random.State.int st 6 with
    | 0 ->
      let a = attr () in
      Ra.Select
        ( Ra.Cmp
            ( pick st ops_all, Ra.Attr a.D.Schema.name,
              Ra.Const (typed_const st a.D.Schema.ty) ),
          e )
    | 1 ->
      let keep =
        List.filter (fun _ -> Random.State.bool st) (D.Schema.names schema)
      in
      let keep = if keep = [] then [ (attr ()).D.Schema.name ] else keep in
      Ra.Project (List.sort_uniq compare keep, e)
    | 2 ->
      let a = (attr ()).D.Schema.name in
      let rec free k =
        let cand = Printf.sprintf "%s_g%d" a k in
        if D.Schema.mem cand schema then free (k + 1) else cand
      in
      Ra.Rename ([ (a, free 0) ], e)
    | 3 -> Ra.Join (e, base ())
    | 4 ->
      let a = attr () in
      let e2 =
        Ra.Select
          ( Ra.Cmp
              ( F.Neq, Ra.Attr a.D.Schema.name,
                Ra.Const (typed_const st a.D.Schema.ty) ),
            e )
      in
      (match Random.State.int st 3 with
      | 0 -> Ra.Union (e, e2)
      | 1 -> Ra.Inter (e, e2)
      | _ -> Ra.Diff (e, e2))
    | _ -> e
