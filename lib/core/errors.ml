(** Conversion of every library's legacy exception into a structured
    {!Diagres_diag.Diag.t}.

    The frontends raise {!Diagres_diag.Diag.Error} directly, but a few
    evaluation-level and translation-level exceptions predate the
    diagnostics subsystem.  This module — which, unlike [Diag], can see
    every library — maps each of them to a phased, coded diagnostic so the
    CLI never prints "uncaught exception" for user input. *)

module Diag = Diagres_diag.Diag

let diag ?needle code phase fmt =
  Format.kasprintf (fun message -> Diag.make ?needle ~code ~phase message) fmt

(** Classify an exception as a diagnostic; [None] means it is not a known
    user-triggerable failure (a genuine bug — let it propagate). *)
let of_exn : exn -> Diag.t option = function
  | Diag.Error d -> Some d
  | Diagres_parsekit.Stream.Parse_error (msg, _)
  | Diagres_parsekit.Lexer.Lex_error (msg, _) ->
    Some (diag "E-PARSE-001" Diag.Parse "syntax error: %s" msg)
  | Diagres_logic.Prop.Parse_error msg ->
    Some (diag "E-PROP-PARSE-001" Diag.Parse "syntax error: %s" msg)
  | Diagres_data.Schema.Schema_error msg ->
    Some (diag "E-SCHEMA-001" Diag.Data "%s" msg)
  | Diagres_data.Csv.Csv_error msg ->
    Some (diag "E-CSV-000" Diag.Data "%s" msg)
  | Diagres_data.Database.Unknown_relation r ->
    Some (diag "E-DB-001" Diag.Eval ~needle:r "unknown relation %S" r)
  | Diagres_ra.Eval.Eval_error msg ->
    Some (diag "E-RA-EVAL-001" Diag.Eval "%s" msg)
  | Diagres_ra.Aggregate.Aggregate_error msg ->
    Some (diag "E-RA-EVAL-002" Diag.Eval "%s" msg)
  | Diagres_rc.Trc.Eval_error msg ->
    Some (diag "E-TRC-EVAL-001" Diag.Eval "%s" msg)
  | Diagres_logic.Structure.Eval_error msg ->
    Some (diag "E-DRC-EVAL-001" Diag.Eval "%s" msg)
  | Diagres_datalog.Eval.Eval_error msg ->
    Some (diag "E-DLG-EVAL-001" Diag.Eval "%s" msg)
  | Diagres_rc.Safety.Unsafe msg ->
    Some (diag "E-DRC-SAFE-001" Diag.Safety "%s" msg)
  | Diagres_sql.To_trc.Unsupported msg | Diagres_sql.Of_trc.Unsupported msg
  | Diagres_rc.Trc_to_drc.Unsupported msg ->
    Some (diag "E-XLATE-001" Diag.Type "unsupported translation: %s" msg)
  | Diagres_rc.Ra_to_trc.Union_not_supported ->
    Some
      (diag "E-XLATE-002" Diag.Type
         "union inside this RA shape cannot be translated to a single \
          union-free TRC query")
  | Diagres_diagrams.Trc_scene.Disjunction msg ->
    Some (diag "E-VIZ-005" Diag.Type "%s" msg)
  | Diagres_diagrams.Eg_beta.Unsupported msg
  | Diagres_diagrams.Begriffsschrift.Unsupported msg
  | Diagres_diagrams.Conceptual_graph.Unsupported msg ->
    Some (diag "E-VIZ-006" Diag.Type "%s" msg)
  | _ -> None

(** Run [f]; known failures become [Error d], unknown exceptions propagate. *)
let capture f : ('a, Diag.t) result =
  match f () with
  | x -> Ok x
  | exception e -> (
    match of_exn e with Some d -> Error d | None -> raise e)

(** Like {!capture}, but *every* exception becomes a diagnostic: unknown
    ones map to phase [Internal] (exit code 70), which reaching from user
    input is by definition a bug.  This is the CLI's outermost net. *)
let capture_all f : ('a, Diag.t) result =
  match f () with
  | x -> Ok x
  | exception e -> (
    match of_exn e with
    | Some d -> Error d
    | None ->
      Error
        (diag "E-INTERNAL-001" Diag.Internal
           "internal error (please report): %s" (Printexc.to_string e)))
