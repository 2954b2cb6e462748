(** Relational Algebra in the named perspective — the procedural backbone the
    tutorial maps "dataflow style" visual languages (DFQL and friends) onto.

    Operators: selection σ, projection π, renaming ρ, cartesian product ×,
    natural join ⋈, theta join, set union/intersection/difference, and
    relational division ÷ (derivable, but kept primitive because Q3 and the
    QBE discussion center on it). *)

type operand =
  | Attr of string                       (** attribute reference *)
  | Const of Diagres_data.Value.t        (** literal *)

(** Selection predicates: comparisons composed with ∧ ∨ ¬. *)
type pred =
  | Cmp of Diagres_logic.Fol.cmp * operand * operand
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Ptrue

type t =
  | Rel of string                        (** base relation *)
  | Values of string * Diagres_data.Value.t list
      (** the literal one-column relation [{⟨x: c⟩ | c ∈ cs}] — the
          constant relations of the textbook algebra, which the calculus
          translation needs for a variable bound only by [x = c] and for
          the formula's constants in the active domain *)
  | Empty of t
      (** the empty relation with the schema of the carried expression,
          which is never evaluated — the zero the optimizer's dead-branch
          pruning produces (formerly the twice-evaluated [Diff (e, e)]) *)
  | Select of pred * t                   (** σ_pred *)
  | Project of string list * t           (** π_attrs *)
  | Rename of (string * string) list * t (** ρ old→new, simultaneous *)
  | Product of t * t                     (** × (disjoint attributes) *)
  | Join of t * t                        (** natural join ⋈ *)
  | Theta_join of pred * t * t           (** ⋈_pred *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Division of t * t                    (** ÷ *)

let rel name = Rel name
let select p e = Select (p, e)
let project attrs e = Project (attrs, e)
let rename pairs e = Rename (pairs, e)
let join a b = Join (a, b)
let union a b = Union (a, b)
let diff a b = Diff (a, b)

let attr a = Attr a
let const v = Const (v : Diagres_data.Value.t)
let cint n = Const (Diagres_data.Value.Int n)
let cstr s = Const (Diagres_data.Value.String s)
let eq a b = Cmp (Diagres_logic.Fol.Eq, a, b)

let pred_and a b =
  match (a, b) with Ptrue, p | p, Ptrue -> p | _ -> And (a, b)

let pred_conj = List.fold_left pred_and Ptrue

(** Base relations mentioned, with multiplicity (a proxy for the "number of
    table occurrences" that the QBE/Datalog comparison counts). *)
let rec base_relations = function
  | Rel r -> [ r ]
  | Values _ -> []
  | Empty e | Select (_, e) | Project (_, e) | Rename (_, e) ->
    base_relations e
  | Product (a, b) | Join (a, b) | Theta_join (_, a, b)
  | Union (a, b) | Inter (a, b) | Diff (a, b) | Division (a, b) ->
    base_relations a @ base_relations b

(** Number of operator nodes — the complexity measure used in benches. *)
let rec size = function
  | Rel _ | Values _ -> 1
  | Empty e | Select (_, e) | Project (_, e) | Rename (_, e) -> 1 + size e
  | Product (a, b) | Join (a, b) | Theta_join (_, a, b)
  | Union (a, b) | Inter (a, b) | Diff (a, b) | Division (a, b) ->
    1 + size a + size b

let rec pred_attrs = function
  | Cmp (_, a, b) ->
    List.filter_map (function Attr x -> Some x | Const _ -> None) [ a; b ]
  | And (a, b) | Or (a, b) -> pred_attrs a @ pred_attrs b
  | Not p -> pred_attrs p
  | Ptrue -> []

(** Structural equality modulo nothing — plain AST equality, exposed to make
    intent explicit at call sites. *)
let equal (a : t) (b : t) = a = b
