(** Recursive-descent parser for the ASCII RA syntax printed by
    {!Pretty.ascii}.

    Grammar (lowest precedence first):
    {v
    expr    := term (("union" | "intersect" | "minus") term)*
    term    := factor (("join" ["[" pred "]"] | "*" | "div") factor)*
    factor  := relname
             | ("select"|"sigma")  "[" pred "]" "(" expr ")"
             | ("project"|"pi")    "[" attrs "]" "(" expr ")"
             | ("rename"|"rho")    "[" renames "]" "(" expr ")"
             | "empty" "(" expr ")"
             | "(" expr ")"
    pred    := disj ; disj := conj ("or" conj)* ; conj := atom ("and" atom)*
    atom    := "not" atom | "true" | "(" pred ")" | operand cmp operand
    v} *)

module S = Diagres_parsekit.Stream

exception Parse_error = S.Parse_error

let keywords =
  [ "select"; "sigma"; "project"; "pi"; "rename"; "rho"; "join"; "union";
    "intersect"; "minus"; "div"; "and"; "or"; "not"; "true"; "empty";
    "values" ]

let operand s : Ast.operand =
  match S.peek s with
  | Diagres_parsekit.Lexer.Ident x when not (List.mem x keywords) ->
    S.advance s;
    Ast.Attr x
  | _ -> Ast.Const (S.value s)

let rec pred s : Ast.pred =
  let a = conj s in
  if S.eat_kw s "or" then Ast.Or (a, pred s) else a

and conj s =
  let a = atom s in
  if S.eat_kw s "and" then Ast.And (a, conj s) else a

and atom s =
  if S.eat_kw s "not" then Ast.Not (atom s)
  else if S.eat_kw s "true" then Ast.Ptrue
  else if S.at_sym s "(" then begin
    S.expect_sym s "(";
    let p = pred s in
    S.expect_sym s ")";
    p
  end
  else begin
    let a = operand s in
    match S.cmp_op s with
    | Some op -> Ast.Cmp (op, a, operand s)
    | None -> S.error s "expected comparison operator"
  end

(* empty list allowed: [project[]] is the nullary (Boolean) projection *)
let attr_list s =
  if S.at_sym s "]" then []
  else S.sep_list1 s ~sep:"," (fun s -> S.ident_not s keywords)

let rename_list s =
  S.sep_list1 s ~sep:"," (fun s ->
      let a = S.ident_not s keywords in
      S.expect_sym s "->";
      let b = S.ident_not s keywords in
      (a, b))

let rec expr s : Ast.t =
  let a = ref (term s) in
  let rec go () =
    if S.eat_kw s "union" then (a := Ast.Union (!a, term s); go ())
    else if S.eat_kw s "intersect" then (a := Ast.Inter (!a, term s); go ())
    else if S.eat_kw s "minus" then (a := Ast.Diff (!a, term s); go ())
  in
  go ();
  !a

and term s =
  let a = ref (factor s) in
  let rec go () =
    if S.eat_kw s "join" then begin
      if S.eat_sym s "[" then begin
        let p = pred s in
        S.expect_sym s "]";
        a := Ast.Theta_join (p, !a, factor s)
      end
      else a := Ast.Join (!a, factor s);
      go ()
    end
    else if S.eat_sym s "*" then (a := Ast.Product (!a, factor s); go ())
    else if S.eat_kw s "div" then (a := Ast.Division (!a, factor s); go ())
  in
  go ();
  !a

and factor s =
  let unary build parse_args =
    S.expect_sym s "[";
    let args = parse_args s in
    S.expect_sym s "]";
    S.expect_sym s "(";
    let e = expr s in
    S.expect_sym s ")";
    build args e
  in
  if S.at_kw s "select" || S.at_kw s "sigma" then begin
    S.advance s;
    unary (fun p e -> Ast.Select (p, e)) pred
  end
  else if S.at_kw s "project" || S.at_kw s "pi" then begin
    S.advance s;
    unary (fun attrs e -> Ast.Project (attrs, e)) attr_list
  end
  else if S.at_kw s "rename" || S.at_kw s "rho" then begin
    S.advance s;
    unary (fun pairs e -> Ast.Rename (pairs, e)) rename_list
  end
  else if S.eat_kw s "values" then begin
    S.expect_sym s "[";
    let x = S.ident_not s keywords in
    S.expect_sym s "]";
    S.expect_sym s "(";
    let vs =
      if S.at_sym s ")" then [] else S.sep_list1 s ~sep:"," S.value
    in
    S.expect_sym s ")";
    Ast.Values (x, vs)
  end
  else if S.eat_kw s "empty" then begin
    S.expect_sym s "(";
    let e = expr s in
    S.expect_sym s ")";
    Ast.Empty e
  end
  else if S.at_sym s "(" then begin
    S.expect_sym s "(";
    let e = expr s in
    S.expect_sym s ")";
    e
  end
  else Ast.Rel (S.ident_not s keywords)

let parse src =
  let s = S.make src in
  let e = expr s in
  S.expect_eof s;
  e
