(** Classical syllogisms, decided diagrammatically.

    A syllogism has a major premise over (M, P), a minor premise over
    (S, M), and a conclusion over (S, P).  Of the 256 moods, 15 are valid
    under modern (non-existential-import) semantics and 24 under the
    traditional reading.  Experiment E2 checks that the Venn region
    algebra reproduces exactly the modern list, and that adding import
    assumptions recovers the traditional one — all cross-validated against
    FOL model enumeration. *)

type figure = Fig1 | Fig2 | Fig3 | Fig4

type mood = { major : char; minor : char; conclusion : char; figure : figure }

let figures = [ Fig1; Fig2; Fig3; Fig4 ]
let letters = [ 'A'; 'E'; 'I'; 'O' ]

let all_moods =
  List.concat_map
    (fun figure ->
      List.concat_map
        (fun major ->
          List.concat_map
            (fun minor ->
              List.map
                (fun conclusion -> { major; minor; conclusion; figure })
                letters)
            letters)
        letters)
    figures

let statement letter subject predicate : Venn.statement =
  match letter with
  | 'A' -> Venn.All_are (subject, predicate)
  | 'E' -> Venn.No_are (subject, predicate)
  | 'I' -> Venn.Some_are (subject, predicate)
  | 'O' -> Venn.Some_are_not (subject, predicate)
  | c -> invalid_arg (Printf.sprintf "unknown categorical letter %c" c)

(** Premises and conclusion over the canonical term names S, M, P. *)
let propositions (m : mood) =
  let major =
    match m.figure with
    | Fig1 | Fig3 -> statement m.major "M" "P"
    | Fig2 | Fig4 -> statement m.major "P" "M"
  in
  let minor =
    match m.figure with
    | Fig1 | Fig2 -> statement m.minor "S" "M"
    | Fig3 | Fig4 -> statement m.minor "M" "S"
  in
  (major, minor, statement m.conclusion "S" "P")

let sets = [ "S"; "M"; "P" ]

(** Validity via the Venn region algebra. *)
let valid_venn ?(existential_import = false) (m : mood) =
  let major, minor, concl = propositions m in
  let premises = Venn.of_statements sets [ major; minor ] in
  let premises =
    if existential_import then
      (* traditional logic: every term is non-empty *)
      List.fold_left
        (fun d s -> Venn.add_xseq d (Venn.zones_in d s))
        premises sets
    else premises
  in
  let conclusion = Venn.of_statements sets [ concl ] in
  Venn.entails premises conclusion

(** Validity by zone-model enumeration (the semantic ground truth; monadic
    FOL over 3 predicates has exactly the 2⁸ inhabited-zone-set models up
    to the only equivalence that matters here). *)
let valid_semantic ?(existential_import = false) (m : mood) =
  let major, minor, concl = propositions m in
  let premise_d = Venn.of_statements sets [ major; minor ] in
  let premise_d =
    if existential_import then
      List.fold_left
        (fun d s -> Venn.add_xseq d (Venn.zones_in d s))
        premise_d sets
    else premise_d
  in
  let concl_d = Venn.of_statements sets [ concl ] in
  Venn.entails_semantic premise_d concl_d

(** The FOL sentence [premises → conclusion] of a mood, for differential
    testing against {!Diagres_rc.Drc_to_ra.eval_sentence} on concrete monadic
    databases. *)
let to_fol ?(existential_import = false) (m : mood) =
  let module F = Diagres_logic.Fol in
  let major, minor, concl = propositions m in
  let to_f st = Venn.to_fol (Venn.of_statements sets [ st ]) in
  let premise = F.And (to_f major, to_f minor) in
  let premise =
    if existential_import then
      List.fold_left
        (fun acc s -> F.And (acc, F.Exists ("x", F.Pred (s, [ F.Var "x" ]))))
        premise sets
    else premise
  in
  F.Implies (premise, to_f concl)

(** The 15 moods valid without existential import, by traditional name. *)
let valid_modern : (string * mood) list =
  [ ("Barbara", { major = 'A'; minor = 'A'; conclusion = 'A'; figure = Fig1 });
    ("Celarent", { major = 'E'; minor = 'A'; conclusion = 'E'; figure = Fig1 });
    ("Darii", { major = 'A'; minor = 'I'; conclusion = 'I'; figure = Fig1 });
    ("Ferio", { major = 'E'; minor = 'I'; conclusion = 'O'; figure = Fig1 });
    ("Cesare", { major = 'E'; minor = 'A'; conclusion = 'E'; figure = Fig2 });
    ("Camestres", { major = 'A'; minor = 'E'; conclusion = 'E'; figure = Fig2 });
    ("Festino", { major = 'E'; minor = 'I'; conclusion = 'O'; figure = Fig2 });
    ("Baroco", { major = 'A'; minor = 'O'; conclusion = 'O'; figure = Fig2 });
    ("Datisi", { major = 'A'; minor = 'I'; conclusion = 'I'; figure = Fig3 });
    ("Disamis", { major = 'I'; minor = 'A'; conclusion = 'I'; figure = Fig3 });
    ("Ferison", { major = 'E'; minor = 'I'; conclusion = 'O'; figure = Fig3 });
    ("Bocardo", { major = 'O'; minor = 'A'; conclusion = 'O'; figure = Fig3 });
    ("Camenes", { major = 'A'; minor = 'E'; conclusion = 'E'; figure = Fig4 });
    ("Dimaris", { major = 'I'; minor = 'A'; conclusion = 'I'; figure = Fig4 });
    ("Fresison", { major = 'E'; minor = 'I'; conclusion = 'O'; figure = Fig4 }) ]

let mood_to_string m =
  let fig = function Fig1 -> 1 | Fig2 -> 2 | Fig3 -> 3 | Fig4 -> 4 in
  Printf.sprintf "%c%c%c-%d" m.major m.minor m.conclusion (fig m.figure)
