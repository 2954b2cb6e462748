(** The tutorial's benchmark queries (Part 3), each in all five textual
    languages over the sailors–reserves–boats schema, with ground-truth
    answers on the sample instance.

    Q1  join            — sailors who reserved a red boat
    Q2  anti-join       — sailors who reserved no red boat
    Q3  division        — sailors who reserved {e all} red boats
    Q4  disjunction     — sailors who reserved a red or a green boat
    Q5  self-join, θ    — sailor pairs with equal rating, first older

    Every entry is a source string in the concrete syntax of the matching
    parser; experiment E1 checks that, per query, all five agree on the
    sample database and on randomized instances. *)

type entry = {
  id : string;
  description : string;
  sql : string;
  ra : string;
  trc : string;
  drc : string;
  datalog : string;  (** program text; goal predicate is the query id *)
  expected_sids : int list option;
      (** ground truth on {!Diagres_data.Sample_db.db} for single-column
          sid results; [None] for Q5 (pair-valued) *)
}

let q1 =
  {
    id = "q1";
    description = "sailors (sid) who reserved a red boat";
    sql =
      "SELECT DISTINCT s.sid FROM Sailor s, Reserves r, Boat b WHERE s.sid \
       = r.sid AND r.bid = b.bid AND b.color = 'red'";
    ra =
      "project[sid](Reserves join project[bid](select[color = 'red'](Boat)))";
    trc =
      "{ s.sid | s in Sailor : exists r in Reserves (r.sid = s.sid and \
       exists b in Boat (b.bid = r.bid and b.color = 'red')) }";
    drc =
      "{ s | exists n, rt, a (Sailor(s, n, rt, a) & exists b, d (Reserves(s, \
       b, d) & exists bn, c (Boat(b, bn, c) & c = 'red'))) }";
    datalog =
      "q1(S) :- Sailor(S, N, R, A), Reserves(S, B, D), Boat(B, BN, 'red').";
    expected_sids = Some Diagres_data.Sample_db.q1_expected_sids;
  }

let q2 =
  {
    id = "q2";
    description = "sailors who reserved no red boat";
    sql =
      "SELECT DISTINCT s.sid FROM Sailor s WHERE NOT EXISTS (SELECT r.sid \
       FROM Reserves r, Boat b WHERE r.sid = s.sid AND r.bid = b.bid AND \
       b.color = 'red')";
    ra =
      "project[sid](Sailor) minus project[sid](Reserves join \
       project[bid](select[color = 'red'](Boat)))";
    trc =
      "{ s.sid | s in Sailor : not (exists r in Reserves (r.sid = s.sid and \
       exists b in Boat (b.bid = r.bid and b.color = 'red'))) }";
    drc =
      "{ s | exists n, rt, a (Sailor(s, n, rt, a)) & not (exists b, d \
       (Reserves(s, b, d) & exists bn, c (Boat(b, bn, c) & c = 'red'))) }";
    datalog =
      "redsailor(S) :- Reserves(S, B, D), Boat(B, BN, 'red').\n\
       q2(S) :- Sailor(S, N, R, A), not redsailor(S).";
    expected_sids = Some Diagres_data.Sample_db.q2_expected_sids;
  }

let q3 =
  {
    id = "q3";
    description = "sailors who reserved all red boats";
    sql =
      "SELECT DISTINCT s.sid FROM Sailor s WHERE NOT EXISTS (SELECT b.bid \
       FROM Boat b WHERE b.color = 'red' AND NOT EXISTS (SELECT r.sid FROM \
       Reserves r WHERE r.sid = s.sid AND r.bid = b.bid))";
    (* The textbook ÷ formulation [π(Reserves) ÷ π(σ_red Boat)] differs on
       the vacuous case: with no red boats it returns sailors who reserved
       *something*, while ∀-based formulations return every sailor.  The
       subtraction form below matches the ∀ semantics on all instances —
       the empty-divisor subtlety the cow book warns about.  Division
       itself is exercised by tests and benches. *)
    ra =
      "project[sid](Sailor) minus project[sid]((project[sid](Sailor) * \
       project[bid](select[color = 'red'](Boat))) minus project[sid, \
       bid](Reserves))";
    trc =
      "{ s.sid | s in Sailor : forall b in Boat (b.color = 'red' implies \
       exists r in Reserves (r.sid = s.sid and r.bid = b.bid)) }";
    drc =
      "{ s | exists n, rt, a (Sailor(s, n, rt, a)) & forall b (forall bn \
       (forall c (Boat(b, bn, c) & c = 'red' implies exists d (Reserves(s, \
       b, d))))) }";
    datalog =
      "missing(S) :- Sailor(S, N, R, A), Boat(B, BN, 'red'), not res2(S, \
       B).\n\
       res2(S, B) :- Reserves(S, B, D).\n\
       q3(S) :- Sailor(S, N, R, A), not missing(S).";
    expected_sids = Some Diagres_data.Sample_db.q3_expected_sids;
  }

let q4 =
  {
    id = "q4";
    description = "sailors who reserved a red or a green boat";
    sql =
      "SELECT s.sid FROM Sailor s, Reserves r, Boat b WHERE s.sid = r.sid \
       AND r.bid = b.bid AND b.color = 'red' UNION SELECT s.sid FROM Sailor \
       s, Reserves r, Boat b WHERE s.sid = r.sid AND r.bid = b.bid AND \
       b.color = 'green'";
    ra =
      "project[sid](Reserves join project[bid](select[color = 'red' or \
       color = 'green'](Boat)))";
    trc =
      "{ s.sid | s in Sailor : exists r in Reserves (r.sid = s.sid and \
       exists b in Boat (b.bid = r.bid and (b.color = 'red' or b.color = \
       'green'))) }";
    drc =
      "{ s | exists n, rt, a (Sailor(s, n, rt, a) & exists b, d (Reserves(s, \
       b, d) & exists bn, c (Boat(b, bn, c) & (c = 'red' | c = 'green')))) }";
    datalog =
      "q4(S) :- Sailor(S, N, R, A), Reserves(S, B, D), Boat(B, BN, 'red').\n\
       q4(S) :- Sailor(S, N, R, A), Reserves(S, B, D), Boat(B, BN, 'green').";
    expected_sids = Some Diagres_data.Sample_db.q4_expected_sids;
  }

let q5 =
  {
    id = "q5";
    description =
      "pairs of sailors with the same rating where the first is older";
    sql =
      "SELECT s1.sid, s2.sid FROM Sailor s1, Sailor s2 WHERE s1.rating = \
       s2.rating AND s1.age > s2.age";
    ra =
      "project[sid, sid2](rename[sid -> sid2, sname -> sname2, rating -> \
       rating2, age -> age2](Sailor) join[rating = rating2 and age > \
       age2] Sailor)";
    trc =
      "{ s1.sid, s2.sid | s1 in Sailor, s2 in Sailor : s1.rating = s2.rating \
       and s1.age > s2.age }";
    drc =
      "{ x, y | exists n1, r1, a1 (Sailor(x, n1, r1, a1) & exists n2, r2, a2 \
       (Sailor(y, n2, r2, a2) & r1 = r2 & a1 > a2)) }";
    datalog =
      "q5(X, Y) :- Sailor(X, N1, R, A1), Sailor(Y, N2, R, A2), A1 > A2.";
    expected_sids = None;
  }

let all = [ q1; q2; q3; q4; q5 ]

let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> e
  | None -> invalid_arg ("unknown catalog query " ^ id)

(** Parsed forms (raise on internal inconsistency — exercised in tests). *)
let parsed_sql e = Diagres_sql.Parser.parse e.sql
let parsed_ra e = Diagres_ra.Parser.parse e.ra
let parsed_trc e = Diagres_rc.Trc_parser.parse e.trc
let parsed_drc e = Diagres_rc.Drc_parser.parse e.drc
let parsed_datalog e = Diagres_datalog.Parser.parse e.datalog

(** Evaluate the entry in every language on [db]; returns language-tagged
    relations (columns may be named differently — compare with
    {!Diagres_data.Relation.same_rows}). *)
let eval_all db (e : entry) : (string * Diagres_data.Relation.t) list =
  List.map
    (fun (lang, text) ->
      ( String.lowercase_ascii (Languages.name lang),
        Languages.eval db (Languages.parse lang text) ))
    Languages.[ (Sql, e.sql); (Ra, e.ra); (Trc, e.trc); (Drc, e.drc);
                (Datalog, e.datalog) ]
