(** Constraint diagrams (Kent 1997; Gil, Howse & Kent 1999): Euler/Venn
    contours extended with {e spiders} (existential elements), shading, and
    {e universal spiders} with arrows — "a step beyond UML" for expressing
    invariants.

    We implement the monadic-plus-binary fragment the tutorial discusses:

    - contours = unary predicates (sets), zones as in {!Venn};
    - an {e existential spider} asserts an element in one of its zones
      (a ⊗-sequence with identity: two spiders denote distinct elements
      when a {e distinctness} constraint links them);
    - a {e universal spider} ranges over every element of its habitat;
    - an {e arrow} labelled with a binary relation from spider [s] to a
      contour/spider target asserts the relational image: every/some
      element denoted by [s] relates to the target.

    The reading-order problem — which spider quantifies first — is exactly
    what Fish & Howse's "default reading" resolves and what QueryVis
    borrows its arrows for (tutorial Part 5); {!reading_orders} returns all
    linearizations and {!ambiguous} checks whether they disagree
    semantically. *)

module F = Diagres_logic.Fol

type spider_kind = Existential | Universal

type spider = {
  sid : string;            (** unique name; doubles as FOL variable *)
  kind : spider_kind;
  habitat : Venn.zone list;  (** the zones the spider may live in *)
}

type arrow = {
  relation : string;       (** binary predicate name *)
  src : string;            (** spider id *)
  dst_contour : string;    (** target contour: image is inside this set *)
}

type t = {
  sets : string list;
  shaded : Venn.zone list;
  spiders : spider list;
  distinct : (string * string) list;  (** explicit distinctness constraints *)
  arrows : arrow list;
}

exception Constraint_error of string

let create sets = { sets; shaded = []; spiders = []; distinct = []; arrows = [] }

let venn_of d : Venn.t =
  let v = Venn.create d.sets in
  Venn.shade v d.shaded

let add_spider d ?(kind = Existential) sid habitat =
  if List.exists (fun s -> s.sid = sid) d.spiders then
    raise (Constraint_error ("duplicate spider " ^ sid));
  if habitat = [] then raise (Constraint_error "spider needs a habitat");
  { d with spiders = { sid; kind; habitat } :: d.spiders }

let add_shading d zones = { d with shaded = zones @ d.shaded }

let add_distinct d a b = { d with distinct = (a, b) :: d.distinct }

let add_arrow d ~relation ~src ~dst_contour =
  if not (List.exists (fun s -> s.sid = src) d.spiders) then
    raise (Constraint_error ("arrow from unknown spider " ^ src));
  if not (List.mem dst_contour d.sets) then
    raise (Constraint_error ("arrow to unknown contour " ^ dst_contour));
  { d with arrows = { relation; src; dst_contour } :: d.arrows }

let spider d sid =
  match List.find_opt (fun s -> s.sid = sid) d.spiders with
  | Some s -> s
  | None -> raise (Constraint_error ("unknown spider " ^ sid))

(* ------------------------------------------------------------------ *)
(* Semantics: a diagram denotes an FOL sentence, given a quantification
   order over the spiders.                                              *)

let zone_formula d x z = Venn.zone_formula (venn_of d) x z

let habitat_formula d x (s : spider) =
  F.disj (List.map (zone_formula d x) s.habitat)

(* arrows sourced at spider [s]: ∃y (target(y) ∧ R(x, y)) *)
let arrow_formulas d (s : spider) =
  List.filter_map
    (fun a ->
      if a.src <> s.sid then None
      else
        Some
          (F.Exists
             ( "img_" ^ s.sid ^ "_" ^ a.relation,
               F.And
                 ( F.Pred (a.dst_contour, [ F.Var ("img_" ^ s.sid ^ "_" ^ a.relation) ]),
                   F.Pred (a.relation, [ F.Var s.sid; F.Var ("img_" ^ s.sid ^ "_" ^ a.relation) ]) ) )))
    d.arrows

let distinctness_formulas d order_prefix (s : spider) =
  List.filter_map
    (fun (a, b) ->
      let other = if a = s.sid then Some b else if b = s.sid then Some a else None in
      match other with
      | Some o when List.mem o order_prefix ->
        Some (F.Cmp (F.Neq, F.Var s.sid, F.Var o))
      | _ -> None)
    d.distinct

(** The sentence under a given spider order (outermost first). *)
let to_fol ?order (d : t) : F.t =
  let order =
    match order with
    | Some o -> o
    | None -> List.rev_map (fun s -> s.sid) d.spiders
  in
  let shading =
    List.map
      (fun z -> F.Not (F.Exists ("e", zone_formula d "e" z)))
      d.shaded
  in
  let rec quantify prefix = function
    | [] -> F.conj (match shading with [] -> [ F.True ] | s -> s)
    | sid :: rest ->
      let s = spider d sid in
      let body =
        F.conj
          ((habitat_formula d s.sid s :: distinctness_formulas d prefix s)
          @ arrow_formulas d s)
      in
      let inner = quantify (sid :: prefix) rest in
      (match s.kind with
      | Existential -> F.Exists (s.sid, F.And (body, inner))
      | Universal ->
        F.Forall (s.sid, F.Implies (habitat_formula d s.sid s,
                                    F.conj (distinctness_formulas d prefix s
                                            @ arrow_formulas d s @ [ inner ]))))
  in
  quantify [] order

(* ------------------------------------------------------------------ *)
(* Reading orders (Fish & Howse).                                       *)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        List.map
          (fun rest -> x :: rest)
          (permutations (List.filter (( <> ) x) xs)))
      xs

(** All spider linearizations. *)
let reading_orders (d : t) = permutations (List.map (fun s -> s.sid) d.spiders)

(** The default reading: existential spiders before universal ones,
    each group in insertion order — a simple instance of the Fish–Howse
    default that suffices for our fragment. *)
let default_reading (d : t) =
  let spiders = List.rev d.spiders in
  List.map (fun s -> s.sid)
    (List.filter (fun s -> s.kind = Existential) spiders
    @ List.filter (fun s -> s.kind = Universal) spiders)

(** A diagram is reading-ambiguous on a database when two spider orders
    disagree — mixed ∃/∀ diagrams generically are, which is why constraint
    diagrams need a designated reading and QueryVis needs arrows. *)
let ambiguous db (d : t) =
  let orders = reading_orders d in
  match orders with
  | [] | [ _ ] -> false
  | o :: rest ->
    let truth o = Diagres_rc.Drc_to_ra.eval_sentence db (to_fol ~order:o d) in
    let first = truth o in
    List.exists (fun o' -> truth o' <> first) rest

(* ------------------------------------------------------------------ *)
(* Scene rendering.                                                     *)

let to_scene (d : t) : Scene.t =
  let v = venn_of d in
  let contour_marks =
    List.map
      (fun s ->
        Scene.box ~role:Scene.Group ~title:s
          ~id:("contour:" ^ s)
          [ Scene.leaf ~role:Scene.Annotation ~id:("czone:" ^ s)
              (if List.exists
                    (fun z -> Venn.zone_mem v s z)
                    d.shaded
               then "∅-shaded region"
               else "") ])
      d.sets
  in
  let spider_marks =
    List.map
      (fun s ->
        Scene.leaf ~role:Scene.Predicate_node ~id:("spider:" ^ s.sid)
          (Printf.sprintf "%s%s [%s]"
             (match s.kind with Existential -> "●" | Universal -> "∀")
             s.sid
             (String.concat "|"
                (List.map (Venn.zone_to_string v) s.habitat))))
      d.spiders
  in
  let arrow_links =
    List.map
      (fun a ->
        Scene.link ~label:a.relation ~directed:true ~role:Scene.Reading_arrow
          ("spider:" ^ a.src) ("contour:" ^ a.dst_contour))
      d.arrows
  in
  let distinct_links =
    List.map
      (fun (a, b) ->
        Scene.link ~label:"≠" ~role:Scene.Join_edge ("spider:" ^ a)
          ("spider:" ^ b))
      d.distinct
  in
  Scene.scene
    ~links:(arrow_links @ distinct_links)
    (contour_marks @ spider_marks)

let to_svg d = Scene.to_svg (to_scene d)
let to_ascii d = Scene.to_ascii (to_scene d)
