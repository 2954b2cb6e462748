(** DFQL-style dataflow diagrams (Clark & Wu 1994): the visual language
    whose symbols are exactly the RA operators, wired into a top-down
    dataflow tree.

    The tutorial's observation: every relationally complete visual language
    it surveys is at its core a picture of the RA operator tree.  This
    module makes the observation executable — an RA expression {e is} the
    diagram, laid out with the layered DAG layout. *)

module A = Diagres_ra.Ast
module Layout = Diagres_render.Layout
module Geom = Diagres_render.Geom
module Svg = Diagres_render.Svg
module Ascii = Diagres_render.Ascii

type node = {
  id : int;
  label : string;
  kind : [ `Relation | `Operator ];
}

type t = {
  nodes : node list;
  edges : (int * int) list;  (** dataflow: child result feeds parent *)
  root : int;
}

let of_ra (e : A.t) : t =
  let counter = ref 0 in
  let nodes = ref [] in
  let edges = ref [] in
  let add label kind =
    let id = !counter in
    incr counter;
    nodes := { id; label; kind } :: !nodes;
    id
  in
  let rec go (e : A.t) : int =
    match e with
    | A.Rel r -> add r `Relation
    | A.Values _ -> add (Diagres_ra.Pretty.unicode e) `Relation
    | A.Empty e1 ->
      let n = add "∅" `Operator in
      let c = go e1 in
      edges := (c, n) :: !edges;
      n
    | A.Select (p, e1) ->
      let n = add (Printf.sprintf "σ %s" (Diagres_ra.Pretty.pred_to_string p)) `Operator in
      let c = go e1 in
      edges := (c, n) :: !edges;
      n
    | A.Project (attrs, e1) ->
      let n = add (Printf.sprintf "π %s" (String.concat "," attrs)) `Operator in
      let c = go e1 in
      edges := (c, n) :: !edges;
      n
    | A.Rename (pairs, e1) ->
      let n =
        add
          (Printf.sprintf "ρ %s"
             (String.concat ","
                (List.map (fun (a, b) -> a ^ "→" ^ b) pairs)))
          `Operator
      in
      let c = go e1 in
      edges := (c, n) :: !edges;
      n
    | A.Product (a, b) -> binary "×" a b
    | A.Join (a, b) -> binary "⋈" a b
    | A.Theta_join (p, a, b) ->
      binary (Printf.sprintf "⋈ %s" (Diagres_ra.Pretty.pred_to_string p)) a b
    | A.Union (a, b) -> binary "∪" a b
    | A.Inter (a, b) -> binary "∩" a b
    | A.Diff (a, b) -> binary "−" a b
    | A.Division (a, b) -> binary "÷" a b
  and binary label a b =
    let n = add label `Operator in
    let ca = go a in
    edges := (ca, n) :: !edges;
    let cb = go b in
    edges := (cb, n) :: !edges;
    n
  in
  let root = go e in
  { nodes = List.rev !nodes; edges = List.rev !edges; root }

let node_count d = List.length d.nodes
let edge_count d = List.length d.edges

let layout (d : t) : Layout.result =
  let lnodes =
    List.map
      (fun n ->
        { Layout.id = n.id;
          label = n.label;
          width = Geom.text_width n.label +. 20.;
          height = 26. })
      d.nodes
  in
  let ledges = List.map (fun (s, t) -> { Layout.src = s; dst = t }) d.edges in
  Layout.layered lnodes ledges

let to_svg (d : t) : string =
  let result = layout d in
  let svg = Svg.create () in
  List.iter
    (fun (s, t) ->
      let rs = (Layout.find_placed result s).Layout.rect in
      let rt = (Layout.find_placed result t).Layout.rect in
      let a = Geom.border_point rs (Geom.center rt) in
      let b = Geom.border_point rt (Geom.center rs) in
      Svg.polyline ~arrow:true svg [ a; b ])
    d.edges;
  List.iter
    (fun p ->
      let n = List.find (fun n -> n.id = p.Layout.node.Layout.id) d.nodes in
      let style =
        match n.kind with
        | `Relation ->
          { Svg.default_style with Svg.stroke = "#2b5f9e"; stroke_width = 1.5 }
        | `Operator -> Svg.default_style
      in
      Svg.rect ~style svg p.Layout.rect;
      Svg.text svg
        (Geom.pt (p.Layout.rect.Geom.rx +. 8.) (p.Layout.rect.Geom.ry +. 17.))
        n.label)
    result.Layout.nodes;
  let w, h = result.Layout.size in
  Svg.to_string ~width:w ~height:h svg

let to_ascii (d : t) : string =
  (* the operator tree already is the honest ASCII view *)
  let tree = Hashtbl.create 16 in
  List.iter
    (fun (child, parent) ->
      Hashtbl.replace tree parent
        ((try Hashtbl.find tree parent with Not_found -> []) @ [ child ]))
    d.edges;
  let label id = (List.find (fun n -> n.id = id) d.nodes).label in
  let buf = Buffer.create 256 in
  let rec go indent id =
    Buffer.add_string buf (indent ^ label id ^ "\n");
    List.iter (go (indent ^ "  ")) (try Hashtbl.find tree id with Not_found -> [])
  in
  go "" d.root;
  Buffer.contents buf
