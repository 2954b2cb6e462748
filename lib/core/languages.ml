(** Uniform dispatch over the five textual query languages (Part 3). *)

type lang = Sql | Ra | Trc | Drc | Datalog

let all = [ Sql; Ra; Trc; Drc; Datalog ]

let name = function
  | Sql -> "SQL"
  | Ra -> "RA"
  | Trc -> "TRC"
  | Drc -> "DRC"
  | Datalog -> "Datalog"

module Diag = Diagres_diag.Diag
module T = Diagres_telemetry.Telemetry

let of_name s =
  match String.lowercase_ascii s with
  | "sql" -> Sql
  | "ra" | "algebra" -> Ra
  | "trc" -> Trc
  | "drc" -> Drc
  | "datalog" -> Datalog
  | _ ->
    Diag.error ~code:"E-CLI-LANG-001" ~phase:Diag.Resolve ~needle:s
      ~hints:
        (Diag.did_you_mean
           ~candidates:[ "sql"; "ra"; "trc"; "drc"; "datalog" ]
           s)
      "unknown language %S (expected sql, ra, trc, drc, or datalog)" s

(** A parsed query in any of the five languages. *)
type query =
  | Q_sql of Diagres_sql.Ast.statement
  | Q_ra of Diagres_ra.Ast.t
  | Q_trc of Diagres_rc.Trc.query
  | Q_drc of Diagres_rc.Drc.query
  | Q_datalog of Diagres_datalog.Ast.program * string  (** program, goal *)

(** Parse errors raise {!Diagres_diag.Diag.Error} ([E-<LANG>-PARSE-001])
    carrying the source text and the failing offset, so the CLI can render
    a caret excerpt. *)
let parse_error_code lang =
  Printf.sprintf "E-%s-PARSE-001" (String.uppercase_ascii (name lang))

let parse lang src : query =
  let fail msg off =
    let stop =
      (* extend the caret over the offending word, if any *)
      let n = String.length src in
      let is_word c =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '_'
      in
      let rec go i = if i < n && is_word src.[i] then go (i + 1) else i in
      max (min (off + 1) n) (go (max 0 (min off n)))
    in
    Diag.error ~code:(parse_error_code lang) ~phase:Diag.Parse ~source:src
      ~span:{ Diag.start = max 0 (min off (String.length src)); stop }
      "%s syntax error: %s" (name lang) msg
  in
  let wrap f =
    T.with_span ~cat:"phase"
      ~attrs:(fun () -> [ ("lang", T.Str (name lang)) ])
      "parse"
    @@ fun () ->
    try f () with
    | Diagres_parsekit.Stream.Parse_error (msg, off)
    | Diagres_parsekit.Lexer.Lex_error (msg, off) ->
      fail msg off
  in
  match lang with
  | Sql -> wrap (fun () -> Q_sql (Diagres_sql.Parser.parse src))
  | Ra -> wrap (fun () -> Q_ra (Diagres_ra.Parser.parse src))
  | Trc -> wrap (fun () -> Q_trc (Diagres_rc.Trc_parser.parse src))
  | Drc -> wrap (fun () -> Q_drc (Diagres_rc.Drc_parser.parse src))
  | Datalog ->
    wrap (fun () ->
        let p = Diagres_datalog.Parser.parse src in
        let goal =
          (* convention: the goal is the head of the last rule *)
          match List.rev p with
          | r :: _ -> r.Diagres_datalog.Ast.head.Diagres_datalog.Ast.pred
          | [] -> fail "empty program (expected at least one rule)" 0
        in
        Q_datalog (p, goal))

let lang_of = function
  | Q_sql _ -> Sql
  | Q_ra _ -> Ra
  | Q_trc _ -> Trc
  | Q_drc _ -> Drc
  | Q_datalog _ -> Datalog

(** Evaluate a query.  RA and DRC run through the planner: DRC is
    translated by the range-restricted {!Diagres_rc.Drc_to_ra} and planned
    ({!Diagres_ra.Eval.eval_planned}: typecheck, plan cache, [Plan.run]).
    SQL and TRC run on {!Diagres_rc.Trc.eval}, Datalog on its own
    evaluator; the E18 table compares their planned translations. *)
let eval db (q : query) : Diagres_data.Relation.t =
  T.with_span ~cat:"phase"
    ~attrs:(fun () -> [ ("lang", T.Str (name (lang_of q))) ])
    "eval"
  @@ fun () ->
  match q with
  | Q_sql st -> Diagres_sql.To_ra.eval db st
  | Q_ra e -> Diagres_ra.Eval.eval_planned db e
  | Q_trc q -> Diagres_rc.Trc.eval db q
  | Q_drc q -> Diagres_rc.Drc_to_ra.eval db q
  | Q_datalog (p, goal) -> Diagres_datalog.Eval.query db p ~goal

(** Normalize any language to single-panel TRC queries — the diagram
    generators' input.  Disjunctions hiding inside a panel body are split
    out (via {!Diagres_rc.Translate.drawable_panels}). *)
let to_trc_panels schemas (q : query) : Diagres_rc.Trc.query list =
  T.with_span ~cat:"phase" "translate" @@ fun () ->
  let raw =
    match q with
    | Q_sql st -> Diagres_sql.To_trc.statement schemas st
    | Q_ra e -> Diagres_rc.Translate.ra_to_trc schemas e
    | Q_trc q -> [ q ]
    | Q_drc q -> Diagres_rc.Translate.drc_to_trc schemas q
    | Q_datalog (p, goal) ->
      Diagres_rc.Translate.drc_to_trc schemas
        (Diagres_datalog.To_drc.query schemas p ~goal)
  in
  Diagres_rc.Translate.drawable_panels schemas raw

(** Normalize to a single RA expression. *)
let to_ra schemas (q : query) : Diagres_ra.Ast.t =
  T.with_span ~cat:"phase" "translate" @@ fun () ->
  match q with
  | Q_sql st -> Diagres_sql.To_ra.statement schemas st
  | Q_ra e -> e
  | Q_trc q -> Diagres_rc.Translate.trc_to_ra schemas q
  | Q_drc q -> Diagres_rc.Translate.drc_to_ra schemas q
  | Q_datalog (p, goal) -> Diagres_datalog.To_drc.to_ra schemas p ~goal

(** Render any query as SQL text via its TRC panels — the back-translation
    arm of the Fig. 2 loop. *)
let to_sql schemas (q : query) : Diagres_sql.Ast.statement =
  match q with
  | Q_sql st -> st
  | _ -> Diagres_sql.Of_trc.statement (to_trc_panels schemas q)

(** Pretty-print back to source text. *)
let to_string : query -> string = function
  | Q_sql st -> Diagres_sql.Pretty.to_string st
  | Q_ra e -> Diagres_ra.Pretty.ascii e
  | Q_trc q -> Diagres_rc.Trc.to_string q
  | Q_drc q -> Diagres_rc.Drc.to_string q
  | Q_datalog (p, _) -> Diagres_datalog.Ast.to_string p
