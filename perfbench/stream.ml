(* Seeded request streams: catalog q1-q5 (repeated texts) interleaved with
   fresh Qgen queries printed to text, with an equal share per language.

   Request [i] goes to language [i mod 5].  Each language's requests come
   in groups of one catalog request and [fresh] fresh ones; its k-th group
   is catalog query [k mod 5] and fresh queries, all drawn with formalism
   [(k / 5) mod nf].  A language's fresh queries read the instance's
   relations in turn.  The rotation does not depend on the seed, so every
   run of a workload holds the same catalog classes and relations in the
   same proportions; the seed picks the fresh queries. *)

module D = Diagres_data
module L = Diagres.Languages
module P = Diagres.Pipeline
module C = Diagres.Catalog
module Q = Diagres.Qgen
module Sq = Diagres_sql.Ast
module Dl = Diagres_datalog.Ast
module Ra = Diagres_ra.Ast

type req = {
  id : int;  (** position in its stream *)
  lang : L.lang;
  text : string;
  query : string;  (** "q1".."q5", or "fresh" *)
  formalism : P.formalism option;
}

let catalog_text (e : C.entry) = function
  | L.Sql -> e.C.sql
  | L.Ra -> e.C.ra
  | L.Trc -> e.C.trc
  | L.Drc -> e.C.drc
  | L.Datalog -> e.C.datalog

let lang_tag l = String.lowercase_ascii (L.name l)

(* ---------------- fresh query shapes ---------------- *)

(* Fresh queries are Qgen's, restricted to flat shapes: one range (FROM
   table, positive atom) and no nested block, RA natural joins that share an
   attribute and set operators only at the RA root.  Measured before
   choosing (NOTES.md): at 1,000 sailors about 15 % of unrestricted SQL and
   TRC queries enumerate 2-4M-row products and run past 2 s, and with one
   range but a nested EXISTS they still take 0.4-1.5 s in the nested-loop
   evaluation; on the 25-tuple instance nested DRC queries spend 0.2-3 s,
   and a Datalog rule negating a 4-ary atom 0.2 s and 32 MB, in the
   DRC->TRC panel translation.  A handful of such queries per seed decided
   every figure.  Nesting, negation and those costs stay in the streams
   through catalog q2-q5. *)

let sql_ok (q : Sq.query) =
  let rec flat = function
    | Sq.And (a, b) | Sq.Or (a, b) -> flat a && flat b
    | Sq.Not c -> flat c
    | Sq.Exists _ -> false
    | _ -> true
  in
  List.length q.Sq.from = 1 && flat q.Sq.where

let rec ra_ok schemas ~root (e : Ra.t) =
  let infer = Diagres_ra.Typecheck.infer schemas in
  match e with
  | Ra.Select (_, a) | Ra.Project (_, a) | Ra.Rename (_, a) ->
    ra_ok schemas ~root:false a
  | Ra.Join (a, b) ->
    let names x = D.Schema.names (infer x) in
    List.exists (fun n -> List.mem n (names b)) (names a)
    && ra_ok schemas ~root:false a
    && ra_ok schemas ~root:false b
  | Ra.Union (a, b) | Ra.Inter (a, b) | Ra.Diff (a, b) ->
    root && ra_ok schemas ~root:false a && ra_ok schemas ~root:false b
  | _ -> true

let datalog_ok (p : Dl.program) =
  List.for_all
    (fun (r : Dl.rule) ->
      List.length (List.filter (function Dl.Pos _ -> true | _ -> false) r.Dl.body) = 1
      && not (List.exists (function Dl.Neg _ -> true | _ -> false) r.Dl.body))
    p

(* The relation a Datalog or DRC query reads first. *)
let rec fol_relation = function
  | Diagres_logic.Fol.Pred (r, _) -> Some r
  | Diagres_logic.Fol.Not a | Exists (_, a) | Forall (_, a) -> fol_relation a
  | And (a, b) | Or (a, b) | Implies (a, b) -> (
    match fol_relation a with Some r -> Some r | None -> fol_relation b)
  | _ -> None

(* A fresh query in [lang] whose first base relation (FROM table, range,
   atom or leftmost RA leaf) is [rel]: the cost of a flat query follows
   the size of the relation it reads, so the stream gives each relation a
   fixed share of the fresh queries and the seed picks the query within
   it. *)
let rec fresh st schemas lang ~rel =
  let again () = fresh st schemas lang ~rel in
  match lang with
  | L.Sql -> (
    match Q.gen_sql st schemas with
    | Sq.Query q as s when sql_ok q && (List.hd q.Sq.from).Sq.name = rel ->
      Diagres_sql.Pretty.to_string s
    | _ -> again ())
  | L.Ra ->
    let e = Q.gen_ra st schemas 3 in
    if ra_ok schemas ~root:true e && List.hd (Ra.base_relations e) = rel then
      Diagres_ra.Pretty.ascii e
    else again ()
  | L.Trc ->
    let q = Q.gen_trc ~max_ranges:1 ~depth:0 st schemas in
    if List.map snd q.Diagres_rc.Trc.ranges = [ rel ] then Diagres_rc.Trc.to_string q
    else again ()
  | L.Drc ->
    let q = Q.gen_drc ~max_ranges:1 ~depth:0 st schemas in
    if fol_relation q.Diagres_rc.Drc.body = Some rel then Diagres_rc.Drc.to_string q
    else again ()
  | L.Datalog -> (
    let p = Q.gen_datalog st schemas in
    let first_atom (r : Dl.rule) =
      List.find_map (function Dl.Pos a -> Some a.Dl.pred | _ -> None) r.Dl.body
    in
    match List.rev p with
    | goal :: _ when datalog_ok p && first_atom goal = Some rel -> Dl.to_string p
    | _ -> again ())

(* ---------------- streams ---------------- *)

type t = {
  st : Random.State.t;
  schemas : Q.schemas;
  formalisms : L.lang -> P.formalism list;
  fresh : int;  (** fresh requests per catalog request *)
  mutable next : int;
}

let langs = Array.of_list L.all
let catalog = Array.of_list C.all

let make ~seed ~schemas ~formalisms ~fresh =
  { st = Random.State.make [| 0x6265; seed |]; schemas; formalisms; fresh; next = 0 }

(** Requests per full rotation: every (language, catalog query, formalism)
    once as a catalog request, each followed by [fresh] fresh requests. *)
let cycle t =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let nf = Array.map (fun l -> max 1 (List.length (t.formalisms l))) langs in
  let lcm = Array.fold_left (fun a n -> a * n / gcd a n) 1 nf in
  Array.length langs * (1 + t.fresh) * Array.length catalog * lcm

(* The relation of a language's [n]-th fresh query. *)
let relation t n = fst (List.nth t.schemas (n mod List.length t.schemas))

let next t : req =
  let id = t.next in
  t.next <- id + 1;
  let lang = langs.(id mod Array.length langs) in
  let c = id / Array.length langs in
  let k = c / (1 + t.fresh) in
  let formalism =
    match t.formalisms lang with
    | [] -> None
    | fs -> Some (List.nth fs (k / Array.length catalog mod List.length fs))
  in
  let j = c mod (1 + t.fresh) in
  if j = 0 then
    let e = catalog.(k mod Array.length catalog) in
    { id; lang; text = catalog_text e lang; query = e.C.id; formalism }
  else
    (* this language's fresh request number (k * fresh + j - 1) *)
    let rel = relation t ((k * t.fresh) + j - 1) in
    { id; lang; text = fresh t.st t.schemas lang ~rel; query = "fresh"; formalism }

(** A fresh query outside any rotation: the maintain workload's ad-hoc
    reads, which come in rounds of one per language. *)
let adhoc t lang : req =
  let id = t.next in
  t.next <- id + 1;
  let rel = relation t (id / Array.length langs) in
  { id; lang; text = fresh t.st t.schemas lang ~rel; query = "fresh"; formalism = None }

(** The guard key of one step of a request: the step, the language, the text
    and, for [visualize], the formalism. *)
let key step (r : req) =
  let f =
    match (step, r.formalism) with
    | "visualize", Some f -> P.formalism_name f
    | _ -> ""
  in
  Digest.to_hex
    (Digest.string (String.concat "\000" [ step; L.name r.lang; f; r.text ]))

(** Human-readable operation class, as listed among the failures. *)
let op_class step (r : req) =
  let f =
    match (step, r.formalism) with
    | "visualize", Some f -> "/" ^ P.formalism_name f
    | _ -> ""
  in
  Printf.sprintf "%s %s %s%s" step (L.name r.lang) r.query f

(** Short formalism names used in metric names. *)
let formalism_tag = function
  | P.Relational_diagram -> "rd"
  | P.Query_vis -> "qv"
  | P.Dfql -> "dfql"
  | P.Conceptual_graph -> "cg"
  | P.Qbe -> "qbe"
  | f -> P.formalism_name f
