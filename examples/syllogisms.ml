(* Part 4 of the tutorial: diagrammatic reasoning before databases.

   Decides all 256 syllogistic moods three ways — Euler circles (via their
   Venn embedding), the Venn-Peirce region algebra, and FOL over concrete
   monadic databases — and shows they coincide.

   Run with:  dune exec examples/syllogisms.exe *)

module S = Diagres_diagrams.Syllogism
module V = Diagres_diagrams.Venn

let () =
  print_endline "=== Venn region algebra over {S, M, P} ===";
  let valid = List.filter S.valid_venn S.all_moods in
  Printf.printf "moods valid without existential import: %d (expected 15)\n"
    (List.length valid);
  List.iter
    (fun m ->
      let name =
        List.find_map
          (fun (n, m') -> if m' = m then Some n else None)
          S.valid_modern
      in
      Printf.printf "  %s %s\n" (S.mood_to_string m)
        (Option.value name ~default:"(unnamed?)"))
    valid;

  let valid_import =
    List.filter (S.valid_venn ~existential_import:true) S.all_moods
  in
  Printf.printf
    "\nmoods valid with existential import (traditional logic): %d\n"
    (List.length valid_import);

  print_endline "\n=== Barbara, drawn ===";
  let premises =
    V.of_statements [ "S"; "M"; "P" ]
      [ V.All_are ("M", "P"); V.All_are ("S", "M") ]
  in
  print_string (V.to_ascii premises);
  let svg = V.to_svg premises in
  let oc = open_out "barbara-venn.svg" in
  output_string oc svg;
  close_out oc;
  Printf.printf "wrote barbara-venn.svg (%d bytes)\n" (String.length svg);

  print_endline "\n=== Euler circles: what they cannot draw ===";
  (* "All S are M" + "Some S is not M" is inconsistent; Euler refuses the
     witness zone while Venn shades it and marks the contradiction. *)
  (try
     let _ =
       Diagres_diagrams.Euler.of_statements [ "S"; "M" ]
         [ V.All_are ("S", "M"); V.Some_are_not ("S", "M") ]
     in
     print_endline "Euler accepted (unexpected)"
   with Diagres_diagrams.Euler.Euler_error msg ->
     Printf.printf "Euler diagram refused: %s\n" msg);
  let venn_version =
    V.of_statements [ "S"; "M" ]
      [ V.All_are ("S", "M"); V.Some_are_not ("S", "M") ]
  in
  Printf.printf "Venn draws it and flags inconsistency: %b\n"
    (V.inconsistent venn_version);

  print_endline "\n=== Cross-check against FOL on random monadic databases ===";
  let mismatches = ref 0 in
  let checked = ref 0 in
  List.iteri
    (fun i m ->
      (* premises → conclusion must hold on every instance iff the mood is
         valid; on a random instance, an invalid mood may still hold, but a
         valid mood must never fail *)
      if S.valid_venn m then
        for seed = 1 to 5 do
          incr checked;
          let db =
            Diagres_data.Generator.monadic_db ~universe:6
              ~preds:[ "S"; "M"; "P" ] ((i * 13) + seed)
          in
          if not (Diagres_rc.Drc_to_ra.eval_sentence db (S.to_fol m)) then begin
            incr mismatches;
            Printf.printf "  MISMATCH on %s seed %d\n" (S.mood_to_string m) seed
          end
        done)
    S.all_moods;
  Printf.printf "checked %d (mood, database) pairs: %d mismatches\n" !checked
    !mismatches;

  print_endline "\n=== Venn-Peirce: disjunctive information needs panels ===";
  (* "All A are B or no A is B" has no single Venn diagram *)
  let d1 = V.of_statements [ "A"; "B" ] [ V.All_are ("A", "B") ] in
  let d2 = V.of_statements [ "A"; "B" ] [ V.No_are ("A", "B") ] in
  let vp = Diagres_diagrams.Venn_peirce.disjoin [ d1 ] [ d2 ] in
  print_string (Diagres_diagrams.Venn_peirce.to_ascii vp);
  Printf.printf "alternatives: %d — the same device Relational Diagrams use \
                 for UNION\n"
    (List.length (Diagres_diagrams.Venn_peirce.alternatives vp));
  (* a valid mood that fails on some database is a bug: fail the run *)
  if !mismatches > 0 then exit 1
