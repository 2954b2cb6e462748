(** First-order logic over a relational vocabulary.

    This is the common semantic target of the diagrammatic reasoning
    formalisms (Part 4 of the tutorial): beta existential graphs, string
    diagrams and constraint diagrams all denote FOL formulas.  The Domain
    Relational Calculus is FOL with free variables; its Boolean fragment
    (sentences) is what Peirce's beta graphs express. *)

type term = Var of string | Const of Diagres_data.Value.t

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Pred of string * term list  (** relation-name applied to terms *)
  | Cmp of cmp * term * term    (** built-in comparison, includes equality *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string * t
  | Forall of string * t

let v x = Var x
let c value = Const value
let cint n = Const (Diagres_data.Value.Int n)
let cstr s = Const (Diagres_data.Value.String s)
let pred name args = Pred (name, args)
let eq a b = Cmp (Eq, a, b)
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let exists x f = Exists (x, f)
let forall x f = Forall (x, f)

let conj = function [] -> True | x :: xs -> List.fold_left ( &&& ) x xs
let disj = function [] -> False | x :: xs -> List.fold_left ( ||| ) x xs

let exists_many xs f = List.fold_right (fun x acc -> Exists (x, acc)) xs f
let forall_many xs f = List.fold_right (fun x acc -> Forall (x, acc)) xs f

let cmp_name = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let cmp_negate = function
  | Eq -> Neq | Neq -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

(** Mirror image for swapping operand order: [a op b ≡ b (flip op) a]. *)
let cmp_flip = function
  | Eq -> Eq | Neq -> Neq | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let cmp_eval op a b =
  let module V = Diagres_data.Value in
  match op with
  | Eq -> V.eq a b
  | Neq -> V.neq a b
  | Lt -> V.lt a b
  | Le -> V.le a b
  | Gt -> V.gt a b
  | Ge -> V.ge a b

let term_vars = function Var x -> [ x ] | Const _ -> []

let rec free_vars = function
  | True | False -> []
  | Pred (_, ts) -> List.concat_map term_vars ts
  | Cmp (_, a, b) -> term_vars a @ term_vars b
  | Not f -> free_vars f
  | And (a, b) | Or (a, b) | Implies (a, b) -> free_vars a @ free_vars b
  | Exists (x, f) | Forall (x, f) ->
    List.filter (fun y -> y <> x) (free_vars f)

let free_var_list f = List.sort_uniq String.compare (free_vars f)

let is_sentence f = free_var_list f = []

let rec predicates = function
  | True | False | Cmp _ -> []
  | Pred (p, ts) -> [ (p, List.length ts) ]
  | Not f -> predicates f
  | And (a, b) | Or (a, b) | Implies (a, b) -> predicates a @ predicates b
  | Exists (_, f) | Forall (_, f) -> predicates f

let predicate_list f =
  List.sort_uniq compare (predicates f)

(** Capture-avoiding substitution of term [t] for free variable [x]. *)
let rec subst x t = function
  | (True | False) as f -> f
  | Pred (p, ts) -> Pred (p, List.map (subst_term x t) ts)
  | Cmp (op, a, b) -> Cmp (op, subst_term x t a, subst_term x t b)
  | Not f -> Not (subst x t f)
  | And (a, b) -> And (subst x t a, subst x t b)
  | Or (a, b) -> Or (subst x t a, subst x t b)
  | Implies (a, b) -> Implies (subst x t a, subst x t b)
  | Exists (y, f) when y = x -> Exists (y, f)
  | Forall (y, f) when y = x -> Forall (y, f)
  | Exists (y, f) -> Exists (y, subst x t f)
  | Forall (y, f) -> Forall (y, subst x t f)

and subst_term x t = function
  | Var y when y = x -> t
  | term -> term

(** Negation normal form with quantifier duality. *)
let rec nnf = function
  | (True | False | Pred _ | Cmp _) as f -> f
  | Not f -> nnf_neg f
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Implies (a, b) -> Or (nnf_neg a, nnf b)
  | Exists (x, f) -> Exists (x, nnf f)
  | Forall (x, f) -> Forall (x, nnf f)

and nnf_neg = function
  | True -> False
  | False -> True
  | Pred _ as f -> Not f
  | Cmp (op, a, b) -> Cmp (cmp_negate op, a, b)
  | Not f -> nnf f
  | And (a, b) -> Or (nnf_neg a, nnf_neg b)
  | Or (a, b) -> And (nnf_neg a, nnf_neg b)
  | Implies (a, b) -> And (nnf a, nnf_neg b)
  | Exists (x, f) -> Forall (x, nnf_neg f)
  | Forall (x, f) -> Exists (x, nnf_neg f)

(** Rewrite universal quantifiers via ∀x.φ ≡ ¬∃x.¬φ — the shape both
    Peirce's graphs and Relational Diagrams actually draw. *)
let rec existentialize = function
  | (True | False | Pred _ | Cmp _) as f -> f
  | Not f -> Not (existentialize f)
  | And (a, b) -> And (existentialize a, existentialize b)
  | Or (a, b) -> Or (existentialize a, existentialize b)
  | Implies (a, b) -> Implies (existentialize a, existentialize b)
  | Exists (x, f) -> Exists (x, existentialize f)
  | Forall (x, f) -> Not (Exists (x, Not (existentialize f)))

(** Miniscoping: push existential quantifiers to the smallest subformula
    containing their variable.  [∃x (A ∧ B) = A ∧ ∃x B] when [x ∉ fv(A)],
    and [∃x (A ∨ B) = ∃x A ∨ ∃x B].  The input is first rewritten with
    only ¬, ∧, ∨ and ∃, negations pushed inward until they meet an atom or
    an ∃; the output is logically equivalent.
    Naive finite-model evaluation of the result visits exponentially fewer
    assignments on conjunctive shapes (the usual case for queries). *)
let miniscope f =
  let rec conjuncts = function
    | And (a, b) -> conjuncts a @ conjuncts b
    | g -> [ g ]
  in
  let rec push x g =
    (* g is already miniscoped; reintroduce ∃x as deep as possible *)
    if not (List.mem x (free_vars g)) then g
    else
      match g with
      | Or (a, b) -> Or (push x a, push x b)
      | And _ ->
        let cs = conjuncts g in
        let with_x, without = List.partition (fun c -> List.mem x (free_vars c)) cs in
        let inner =
          match with_x with
          | [] -> True
          | c :: cs' -> List.fold_left (fun acc d -> And (acc, d)) c cs'
        in
        let wrapped =
          match with_x with
          | [ single ] -> push_single x single
          | _ -> Exists (x, inner)
        in
        List.fold_left (fun acc c -> And (acc, c)) wrapped without
      | _ -> push_single x g
  and push_single x g =
    match g with
    | Exists (y, h) when y <> x ->
      (* try commuting past an inner quantifier *)
      Exists (y, push x h)
    | Or (a, b) -> Or (push x a, push x b)
    | And _ -> push x g
    | _ -> Exists (x, g)
  in
  (* eliminate ⇒ and ∀, pushing ¬ through ¬, ∧ and ∨ but never through ∃
     (that would reintroduce ∀): ∀x(G → H) becomes ¬∃x(G ∧ ¬H), whose
     positive conjunct G can bind x *)
  let rec prep g =
    match g with
    | True | False | Pred _ | Cmp _ -> g
    | Not h -> prep_neg h
    | And (a, b) -> And (prep a, prep b)
    | Or (a, b) -> Or (prep a, prep b)
    | Implies (a, b) -> Or (prep_neg a, prep b)
    | Exists (x, h) -> Exists (x, prep h)
    | Forall (x, h) -> Not (Exists (x, prep_neg h))
  (* prep_neg g: ¬g with the ¬ pushed inward *)
  and prep_neg g =
    match g with
    | True -> False
    | False -> True
    | Pred _ | Cmp _ -> Not g
    | Not h -> prep h
    | And (a, b) -> Or (prep_neg a, prep_neg b)
    | Or (a, b) -> And (prep_neg a, prep_neg b)
    | Implies (a, b) -> And (prep a, prep_neg b)
    | Exists (x, h) -> Not (Exists (x, prep h))
    | Forall (x, h) -> Exists (x, prep_neg h)
  in
  let rec go g =
    match g with
    | True | False | Pred _ | Cmp _ -> g
    | Not h -> Not (go h)
    | And (a, b) -> And (go a, go b)
    | Or (a, b) -> Or (go a, go b)
    | Exists (x, h) -> push x (go h)
    | Implies _ | Forall _ -> assert false
  in
  go (prep f)

(** Structural size: number of connectives, quantifiers, and atoms.  Used by
    the benches as a query-complexity measure. *)
let rec size = function
  | True | False | Pred _ | Cmp _ -> 1
  | Not f -> 1 + size f
  | And (a, b) | Or (a, b) | Implies (a, b) -> 1 + size a + size b
  | Exists (_, f) | Forall (_, f) -> 1 + size f

let rec quantifier_depth = function
  | True | False | Pred _ | Cmp _ -> 0
  | Not f -> quantifier_depth f
  | And (a, b) | Or (a, b) | Implies (a, b) ->
    max (quantifier_depth a) (quantifier_depth b)
  | Exists (_, f) | Forall (_, f) -> 1 + quantifier_depth f

let pp_term ppf = function
  | Var x -> Fmt.string ppf x
  | Const v -> Fmt.string ppf (Diagres_data.Value.to_literal v)

let prec = function
  | True | False | Pred _ | Cmp _ -> 5
  | Not _ -> 4
  | And _ -> 3
  | Or _ -> 2
  | Implies _ -> 1
  | Exists _ | Forall _ -> 0

let rec pp ppf f =
  (* Parenthesization must make the reparse associate exactly as the AST
     does: [&]/[|] parse left-associative, so a right child of equal
     precedence needs parentheses ([a & (b & c)]); [->] parses
     right-associative, so the left child does.  Quantifier bodies in the
     dot form extend maximally to the right. *)
  let paren_if cond child =
    if cond then Fmt.pf ppf "(%a)" pp child else pp ppf child
  in
  let loose child = paren_if (prec child < prec f) child in
  let tight child = paren_if (prec child <= prec f) child in
  match f with
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Pred (p, ts) ->
    Fmt.pf ppf "%s(%a)" p (Fmt.list ~sep:(Fmt.any ", ") pp_term) ts
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_term a (cmp_name op) pp_term b
  | Not g ->
    Fmt.string ppf "!";
    paren_if (prec g < prec f) g
  | And (a, b) ->
    loose a;
    Fmt.string ppf " & ";
    tight b
  | Or (a, b) ->
    loose a;
    Fmt.string ppf " | ";
    tight b
  | Implies (a, b) ->
    tight a;
    Fmt.string ppf " -> ";
    loose b
  | Exists (x, g) -> Fmt.pf ppf "exists %s. %a" x pp g
  | Forall (x, g) -> Fmt.pf ppf "forall %s. %a" x pp g

let to_string f = Fmt.str "%a" pp f
