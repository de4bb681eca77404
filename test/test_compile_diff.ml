(* The compiled-vs-reference differential oracle.

   lib/sql/compile.ml lowers expressions, predicates and selects to
   positional closures once per statement and is the only access-path
   planner; the planner-free reference evaluator in lib/sql/eval.ml
   (full scans, nested loops, no memoization) is the oracle.  This
   suite asserts the two paths are OBSERVABLY IDENTICAL — same results,
   same error diagnostics (rendered through [Errors.to_string]), same
   three-valued-logic collapse — across a qcheck corpus of randomized
   statements, then again end-to-end through the rules engine.

   Layers:

   - Part A: statement-level differential.  Random SELECTs (joins,
     grouping, compounds, derived tables, subqueries, ORDER BY
     expressions) evaluated by [Eval.eval_select] and
     [Compile.eval_select]: over an unindexed database under both
     caching modes, and over the same data with hash and ordered
     indexes, the compiled side planning through engine-style counting
     access hooks (index probes, range probes, hash joins).  The
     generator deliberately produces unknown columns, ambiguous
     references, type errors and misused aggregates, so error
     diagnostics are compared as often as results.

   - Part A2: rule-condition differential.  Random closed predicates
     evaluated by [Eval.eval_predicate] and
     [Compile.compile_predicate]/[run_predicate], over both inputs.

   - Part B: engine-level differential.  Two identical systems (the
     fault-injection harness's schema, rule set and external
     procedure) driven with the same random transaction workload, one
     compiled and one with [reference_eval] set, asserting equal
     per-transaction outcomes, select results, error strings, firing
     traces and final table contents.  Occasional CREATE/DROP INDEX
     between transactions exercises the DDL-generation invalidation
     of cached compiled rule forms.

   Non-vacuity is asserted at the end: the corpus must have produced
   both successful evaluations and errors, the planned runs must have
   taken index probes, range probes and hash joins, and Part B must
   have fired rules on both paths. *)

open Core
open Helpers
module Compile = Sqlf.Compile
module Dml = Sqlf.Dml

(* ------------------------------------------------------------------ *)
(* Part A: statement-level differential                                *)

(* Non-vacuity counters. *)
let ok_results = ref 0
let error_results = ref 0

let fixture_db =
  let db =
    Database.create_table Database.empty
      (Schema.table "t"
         [
           Schema.column "a" Schema.T_int;
           Schema.column "b" Schema.T_int;
           Schema.column "s" Schema.T_string;
         ])
  in
  let db =
    Database.create_table db
      (Schema.table "u"
         [ Schema.column "a" Schema.T_int; Schema.column "c" Schema.T_int ])
  in
  let ins db tbl row = fst (Database.insert db tbl row) in
  let db = ins db "t" [| vi 1; vi 10; vs "x" |] in
  let db = ins db "t" [| vi 2; vi 20; vs "yy" |] in
  let db = ins db "t" [| vi 2; vnull; vs "x" |] in
  let db = ins db "t" [| vi 3; vi 5; vnull |] in
  let db = ins db "t" [| vnull; vi 7; vs "z" |] in
  let db = ins db "u" [| vi 1; vi 100 |] in
  let db = ins db "u" [| vi 2; vnull |] in
  let db = ins db "u" [| vi 4; vi 7 |] in
  db

(* The same data with a hash index on t.a, an ordered index on t.b and
   a hash index on u.a: the planned input of Parts A and A2. *)
let indexed_db =
  let db = fixture_db in
  let db = Database.create_index db ~ix_name:"t_a" ~table:"t" ~column:"a" ~kind:`Hash in
  let db = Database.create_index db ~ix_name:"t_b" ~table:"t" ~column:"b" ~kind:`Ordered in
  Database.create_index db ~ix_name:"u_a" ~table:"u" ~column:"a" ~kind:`Hash

(* Engine-style access hooks over [indexed_db] (the engine's
   [access_for] over a fixed database), reporting every access decision
   to [note]. *)
let access_hooks ~note : Plan.access =
  let db = indexed_db in
  {
    Plan.acc_cols =
      (fun ~table ->
        if Database.has_table db table then
          Some (Table.col_names (Database.table db table))
        else None);
    acc_probe = (fun ~table ~column vs -> Database.probe db ~table ~column vs);
    acc_range =
      (fun ~table ~column ~lower ~upper ->
        Database.range_probe db ~table ~column ~lower ~upper);
    acc_note = (fun ~table:_ kind -> note kind);
    acc_index =
      (fun ~table ~column ->
        List.find_map
          (fun (t, ix) ->
            if String.equal t table && String.equal (Index.column ix) column
            then Some (Index.name ix)
            else None)
          (Database.indexes db));
    acc_count =
      (fun ~table ->
        if Database.has_table db table then
          Some (Table.cardinality (Database.table db table))
        else None);
    acc_stats = (fun ~table ~column -> Database.column_stats db ~table ~column);
  }

let access_counting notes = access_hooks ~note:(fun _ -> incr notes)

(* Random expressions as SQL text (readable counterexamples; exactly
   what the front-end feeds both evaluators).  Terminals include
   unknown and ambiguous references on purpose: in a two-table FROM,
   bare [a] is ambiguous, [z] unknown, [t.q] a known table without
   the column.  Mixed-type arithmetic supplies the type errors. *)
let rec gen_expr depth st =
  let open QCheck.Gen in
  let term () =
    (* weighted: erroneous references ([z] unknown everywhere, [t.q]
       known table without the column) stay rare enough that a useful
       share of whole statements evaluates cleanly *)
    match int_bound 15 st with
    | 0 | 1 | 2 -> string_of_int (int_range (-3) 12 st)
    | 3 -> "null"
    | 4 -> "'x'"
    | 5 -> "'yy'"
    | 6 -> "a"
    | 7 | 8 -> "b"
    | 9 -> "c"
    | 10 -> "s"
    | 11 | 12 -> "t.a"
    | 13 -> "u.c"
    | 14 -> "t.b"
    | _ -> if int_bound 1 st = 0 then "z" else "t.q"
  in
  if depth = 0 then term ()
  else
    let sub () = gen_expr (depth - 1) st in
    match int_bound 16 st with
    | 0 | 1 | 2 -> term ()
    | 3 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 5 -> Printf.sprintf "(%s = %s)" (sub ()) (sub ())
    | 6 -> Printf.sprintf "(%s < %s)" (sub ()) (sub ())
    | 7 -> Printf.sprintf "(%s and %s)" (sub ()) (sub ())
    | 8 -> Printf.sprintf "(%s or %s)" (sub ()) (sub ())
    | 9 -> Printf.sprintf "(not %s)" (sub ())
    | 10 -> Printf.sprintf "(%s is null)" (sub ())
    | 11 -> Printf.sprintf "(%s in (%s, %s))" (sub ()) (sub ()) (sub ())
    | 12 -> Printf.sprintf "(%s between %s and %s)" (sub ()) (sub ()) (sub ())
    | 13 ->
      Printf.sprintf "case when %s then %s else %s end" (sub ()) (sub ())
        (sub ())
    | 14 -> Printf.sprintf "(select max(a) from t where b = %s)" (sub ())
    | 15 -> Printf.sprintf "exists (select * from u where u.c = %s)" (sub ())
    | _ -> Printf.sprintf "(%s in (select a from u where c = %s))" (sub ()) (sub ())

(* Valid-by-construction numeric expressions and predicates over the
   given column names: the unrestricted generator's statements usually
   contain at least one erroneous reference, so these arms keep the
   success path of the differential densely covered too.  Numeric-only
   terminals and operators (no division) cannot raise; NULLs
   propagate. *)
let rec gen_safe_num cols depth st =
  let open QCheck.Gen in
  let term () =
    match int_bound 4 st with
    | 0 | 1 -> string_of_int (int_range (-3) 12 st)
    | 2 -> "null"
    | _ -> List.nth cols (int_bound (List.length cols - 1) st)
  in
  if depth = 0 then term ()
  else
    let sub () = gen_safe_num cols (depth - 1) st in
    match int_bound 5 st with
    | 0 | 1 -> term ()
    | 2 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s - %s)" (sub ()) (sub ())
    | _ ->
      Printf.sprintf "case when %s then %s else %s end"
        (gen_safe_pred cols (depth - 1) st)
        (sub ()) (sub ())

and gen_safe_pred cols depth st =
  let open QCheck.Gen in
  let num () = gen_safe_num cols depth st in
  let atom () =
    match int_bound 4 st with
    | 0 -> Printf.sprintf "(%s = %s)" (num ()) (num ())
    | 1 -> Printf.sprintf "(%s < %s)" (num ()) (num ())
    | 2 -> Printf.sprintf "(%s is null)" (num ())
    | 3 -> Printf.sprintf "(%s in (%s, %s))" (num ()) (num ()) (num ())
    | _ -> Printf.sprintf "(%s between %s and %s)" (num ()) (num ()) (num ())
  in
  if depth = 0 then atom ()
  else
    let sub () = gen_safe_pred cols (depth - 1) st in
    match int_bound 4 st with
    | 0 | 1 -> atom ()
    | 2 -> Printf.sprintf "(%s and %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s or %s)" (sub ()) (sub ())
    | _ -> Printf.sprintf "(not %s)" (sub ())

(* Random SELECT statements covering every compiled shape: plain and
   joined FROMs, grouping (incl. aggregate-only selects over the empty
   grouping), HAVING, DISTINCT/LIMIT, compounds, derived tables,
   subqueries and ORDER BY expressions.  Aggregates in a non-grouped
   WHERE (shape 9) must produce the same misuse error on both paths.
   Shapes 11-15 are valid by construction; shapes 16 and 17 put a range
   or equi-join conjunct next to a random one, so the indexed input
   plans range probes and hash joins. *)
let gen_select st =
  let open QCheck.Gen in
  let e ?(d = 3) () = gen_expr d st in
  let t_cols = [ "a"; "b"; "t.a"; "t.b" ] in
  let join_cols = [ "t.a"; "t.b"; "u.a"; "u.c"; "b"; "c" ] in
  match int_bound 17 st with
  | 0 -> Printf.sprintf "select a, b, s from t where %s" (e ())
  | 1 -> Printf.sprintf "select t.a, u.c, %s from t, u where %s" (e ()) (e ())
  | 2 ->
    Printf.sprintf "select distinct b from t where %s order by b limit %d"
      (e ()) (int_bound 4 st)
  | 3 ->
    Printf.sprintf
      "select a, count(*) from t where %s group by a having count(*) >= %d \
       order by a"
      (e ()) (int_bound 2 st)
  | 4 -> Printf.sprintf "select max(b), min(a), count(s) from t where %s" (e ())
  | 5 ->
    Printf.sprintf "select a from t where %s union select a from u where %s \
                    order by a"
      (e ()) (e ())
  | 6 ->
    Printf.sprintf
      "select x.a, x.b from (select a, b from t where %s) x where x.a > %d"
      (e ()) (int_bound 4 st)
  | 7 -> Printf.sprintf "select a from t where a in (select a from u where %s)" (e ())
  | 8 -> Printf.sprintf "select s from t order by %s, s" (e ~d:2 ())
  | 9 -> Printf.sprintf "select a from t where %s > count(*)" (e ~d:1 ())
  | 10 -> Printf.sprintf "select * from t, u where %s" (e ())
  | 11 ->
    Printf.sprintf "select a, b, %s from t where %s order by a, b"
      (gen_safe_num t_cols 2 st) (gen_safe_pred t_cols 2 st)
  | 12 ->
    Printf.sprintf "select t.a, u.c from t, u where %s order by t.a, u.c"
      (gen_safe_pred join_cols 2 st)
  | 13 ->
    Printf.sprintf
      "select a, count(*), max(%s) from t where %s group by a having \
       count(*) >= %d order by a"
      (gen_safe_num t_cols 1 st) (gen_safe_pred t_cols 1 st) (int_bound 2 st)
  | 14 ->
    Printf.sprintf "select a from t where b in (select c from u where %s) \
                    order by a"
      (gen_safe_pred [ "a"; "c"; "u.a"; "u.c" ] 1 st)
  | 15 ->
    Printf.sprintf "select distinct %s from t where %s order by 1 limit 3"
      (gen_safe_num t_cols 2 st) (gen_safe_pred t_cols 2 st)
  | 16 ->
    Printf.sprintf "select a, b, s from t where b %s %d and %s"
      (oneofl [ "<"; "<="; ">"; ">=" ] st)
      (int_range 0 25 st) (e ~d:2 ())
  | _ ->
    Printf.sprintf "select t.b, u.c from t, u where t.a = u.a and %s"
      (e ~d:2 ())

(* Observable behaviour of one evaluation: the relation, or the
   rendered diagnostic. *)
let observe f =
  match f () with
  | (rel : Eval.relation) -> Ok (Array.to_list rel.Eval.cols, rel.Eval.rows)
  | exception Errors.Error e -> Error (Errors.to_string e)

let check_observed sql a b =
  (match a with Ok _ -> incr ok_results | Error _ -> incr error_results);
  match a, b with
  | Error ea, Error eb ->
    if ea <> eb then
      QCheck.Test.fail_reportf "%s@.reference error: %s@.compiled error: %s"
        sql ea eb
  | Ok (ca, ra), Ok (cb, rb) ->
    if ca <> cb then
      QCheck.Test.fail_reportf "%s@.column mismatch: [%s] vs [%s]" sql
        (String.concat "; " ca) (String.concat "; " cb);
    if not (List.length ra = List.length rb && List.for_all2 Row.equal ra rb)
    then
      QCheck.Test.fail_reportf "%s@.row mismatch:@.%s@.vs@.%s" sql
        (String.concat "\n" (List.map Row.to_string ra))
        (String.concat "\n" (List.map Row.to_string rb))
  | Ok _, Error eb ->
    QCheck.Test.fail_reportf "%s@.reference succeeded, compiled errored: %s"
      sql eb
  | Error ea, Ok _ ->
    QCheck.Test.fail_reportf "%s@.reference errored (%s), compiled succeeded"
      sql ea

(* Access-path counters of the planned runs, for non-vacuity. *)
let planned_index_probes = ref 0
let planned_range_probes = ref 0
let planned_hash_joins = ref 0
let planned_exact = ref 0
let planned_hidden_errors = ref 0

(* Run [f] with counting access hooks; return its observation and
   whether an access path skipped rows (an index or range probe, or a
   hash join). *)
let observe_planned observe f =
  let skipped = ref false in
  let note = function
    | `Seq_scan | `Hash_join_probe -> ()
    | `Index_probe ->
      incr planned_index_probes;
      skipped := true
    | `Range_probe ->
      incr planned_range_probes;
      skipped := true
    | `Hash_join_build ->
      incr planned_hash_joins;
      skipped := true
  in
  let r = observe (fun () -> f (access_hooks ~note)) in
  (r, !skipped)

(* A planned run against the reference.  A probe or a hash join skips
   rows the WHERE clause would reject, and with them any error the
   WHERE would raise there: where the reference raises, the planned run
   may succeed or raise another diagnostic — but only when it took such
   an access path.  Everything else must agree exactly. *)
let check_planned check sql reference (planned, skipped) =
  match reference, planned with
  | Error _, _ when skipped && reference <> planned -> incr planned_hidden_errors
  | _ ->
    incr planned_exact;
    check sql reference planned

let select_differential =
  QCheck.Test.make ~count:600 ~name:"compiled select = interpreted select"
    (QCheck.make ~print:Fun.id gen_select)
    (fun sql ->
      let s = Parser.parse_select_string sql in
      let resolve = Eval.base_resolver fixture_db in
      let reference = observe (fun () -> Eval.eval_select resolve s) in
      (* no access hooks: scans and nested loops, with and without
         uncorrelated-subquery memoization *)
      check_observed sql reference
        (observe (fun () -> Compile.eval_select resolve fixture_db s));
      check_observed sql reference
        (observe (fun () ->
             Compile.eval_select ~use_cache:true resolve fixture_db s));
      (* the same data indexed, planned through access hooks *)
      let resolve = Eval.base_resolver indexed_db in
      check_planned check_observed sql
        (observe (fun () -> Eval.eval_select resolve s))
        (observe_planned observe (fun access ->
             Compile.eval_select ~access ~use_cache:true resolve indexed_db s));
      true)

(* ------------------------------------------------------------------ *)
(* Part A1b: parameterized-statement differential.  The compiled path
   executes a prepared select by reading the EXECUTE frame through
   [Param] closures; the reference evaluator substitutes the bound
   constants into the tree and evaluates the resulting plain select.
   The two must agree on results AND diagnostics — including type
   errors a badly-typed binding provokes. *)

let param_templates =
  [|
    (1, "select a, b from t where a = ?");
    (2, "select a from t where a > ? and b < ? order by a");
    (1, "select s from t where s = ? order by 1");
    (2, "select a from t where a in (?, ?) order by a");
    (1, "select count(*) from t where b = ?");
    (2, "select t.a, u.c from t, u where t.a = u.a and u.c > ? and t.b <> ?");
    (1, "select a from t where b = ? group by a having count(*) >= 1");
    (1, "select a from t where exists (select * from u where u.a = t.a and \
         u.c = ?)");
    (2, "select a, ? from t where b between ? and 30 order by a");
    (1, "select s || ? from t order by 1");
  |]

let gen_param_value st =
  let open QCheck.Gen in
  match int_bound 5 st with
  | 0 -> Value.Null
  | 1 | 2 -> Value.Int (int_bound 20 st)
  | 3 -> Value.Float (float_of_int (int_bound 30 st) /. 2.0)
  | _ -> Value.Str (oneofl [ "x"; "yy"; "z" ] st)

let gen_param_case st =
  let open QCheck.Gen in
  let nparams, template =
    param_templates.(int_bound (Array.length param_templates - 1) st)
  in
  let args = Array.init nparams (fun _ -> gen_param_value st) in
  (template, args)

let param_differential =
  QCheck.Test.make ~count:400
    ~name:"compiled EXECUTE (frame binding) = interpreted (substitution)"
    (QCheck.make gen_param_case ~print:(fun (tpl, args) ->
         Printf.sprintf "%s / (%s)" tpl
           (String.concat ", "
              (List.map Value.to_string (Array.to_list args)))))
    (fun (template, args) ->
      let sql = Printf.sprintf "%s / (%s)" template
          (String.concat ", "
             (List.map Value.to_string (Array.to_list args)))
      in
      let s =
        match Parser.parse_statement_string ("prepare p as " ^ template) with
        | Ast.Stmt_prepare (_, Ast.Select_op s) -> s
        | _ -> QCheck.Test.fail_reportf "template is not a select: %s" template
      in
      let resolve = Eval.base_resolver fixture_db in
      let substituted =
        match Ast.subst_params_op args (Ast.Select_op s) with
        | Ast.Select_op s' -> s'
        | _ -> assert false
      in
      check_observed sql
        (observe (fun () -> Eval.eval_select resolve substituted))
        (observe (fun () ->
             Compile.eval_select ~params:args resolve fixture_db s));
      true)

(* ------------------------------------------------------------------ *)
(* Part A2: rule-condition differential                                *)

(* Closed predicates, the shape of rule conditions: no outer row, all
   data reached through subqueries. *)
let rec gen_predicate depth st =
  let open QCheck.Gen in
  let atom () =
    match int_bound 5 st with
    | 0 ->
      Printf.sprintf "exists (select * from t where %s)" (gen_expr 2 st)
    | 1 ->
      Printf.sprintf "(select count(*) from u where %s) > %d" (gen_expr 1 st)
        (int_bound 3 st)
    | 2 -> Printf.sprintf "(select max(b) from t) > %d" (int_bound 20 st)
    | 3 -> Printf.sprintf "(%d in (select a from u))" (int_bound 5 st)
    | 4 -> "(select min(c) from u) is null"
    | _ -> Printf.sprintf "exists (select a from t group by a having count(*) > %d)"
             (int_bound 2 st)
  in
  if depth = 0 then atom ()
  else
    let sub () = gen_predicate (depth - 1) st in
    match int_bound 4 st with
    | 0 | 1 -> atom ()
    | 2 -> Printf.sprintf "(%s and %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s or %s)" (sub ()) (sub ())
    | _ -> Printf.sprintf "(not %s)" (sub ())

let observe_bool f =
  match f () with
  | (b : bool) -> Ok b
  | exception Errors.Error e -> Error (Errors.to_string e)

let check_bool sql reference compiled =
  match reference, compiled with
  | Ok a, Ok b ->
    if a <> b then
      QCheck.Test.fail_reportf "%s@.reference %b, compiled %b" sql a b
  | Error a, Error b ->
    if a <> b then
      QCheck.Test.fail_reportf "%s@.reference error: %s@.compiled error: %s" sql
        a b
  | Ok _, Error e ->
    QCheck.Test.fail_reportf "%s@.reference succeeded, compiled errored: %s" sql
      e
  | Error e, Ok _ ->
    QCheck.Test.fail_reportf "%s@.reference errored (%s), compiled succeeded"
      sql e

let predicate_differential =
  QCheck.Test.make ~count:300 ~name:"compiled condition = interpreted condition"
    (QCheck.make ~print:Fun.id (gen_predicate 2))
    (fun sql ->
      let e = Parser.parse_expr_string sql in
      let reference db =
        observe_bool (fun () -> Eval.eval_predicate (Eval.base_resolver db) [] e)
      in
      let compiled ?access db =
        Compile.run_predicate ?access ~use_cache:true ~db (Eval.base_resolver db)
          (Compile.compile_predicate db e)
      in
      check_bool sql (reference fixture_db)
        (observe_bool (fun () -> compiled fixture_db));
      check_planned check_bool sql (reference indexed_db)
        (observe_planned observe_bool (fun access -> compiled ~access indexed_db));
      true)

(* ------------------------------------------------------------------ *)
(* Part A3: read-set differential.  A tracked select's Section 5.1
   read set comes from the compiled pass — the select's own fold over
   a lone base table, a compiled scan otherwise, or every row for
   multi-table and grouped selects.  [Dml.select_read_set] states the
   rule directly by interpreting the WHERE over every row ("a row
   whose predicate raises counts as read") and is the oracle.  The
   fixture gains indexes so index probes (equality and range) skip
   rows, and the targeted shapes put a conjunct that raises only on
   skipped rows next to a sargable one. *)

(* Rule-context resolution: [inserted t] holds the first two rows of
   [t]; base tables come from the database. *)
let read_set_resolver () =
  let first_two =
    List.filteri (fun i _ -> i < 2) (Table.to_list (Database.table indexed_db "t"))
  in
  Rules.Transition_tables.resolver
    (Trans_info.init (Effect.of_inserted (List.map fst first_two)) indexed_db)
    indexed_db

(* Statements whose read set is interesting: lone-table selects with a
   sargable conjunct and a possibly-raising one (division, scalar
   subquery, mismatched comparison), range probes, the random corpus,
   multi-table, grouped, compound and derived shapes, and items over
   transition tables. *)
let gen_read_select st =
  let open QCheck.Gen in
  let e () = gen_expr 2 st in
  let k () = int_range 0 4 st in
  let raising () =
    match int_bound 4 st with
    | 0 -> Printf.sprintf "10 / (a - %d) > 0" (k ())
    | 1 -> "s = 3"
    | 2 -> "b > (select c from u where c > t.b)"
    | 3 -> Printf.sprintf "(b + 1) / (b - %d) >= 0" (int_range 4 21 st)
    | _ -> e ()
  in
  match int_bound 11 st with
  | 0 | 1 -> Printf.sprintf "select s from t where a = %d and %s" (k ()) (raising ())
  | 2 ->
    Printf.sprintf "select a from t where b between %d and %d and %s"
      (int_range 0 10 st) (int_range 5 25 st) (raising ())
  | 3 -> Printf.sprintf "select count(*) from t where a in (%d, %d)" (k ()) (k ())
  | 4 -> Printf.sprintf "select c from u where a = %d" (k ())
  | 5 -> gen_select st
  | 6 -> Printf.sprintf "select t.a, u.c from t, u where t.a = u.a and %s" (e ())
  | 7 -> Printf.sprintf "select a, count(*) from t where %s group by a" (e ())
  | 8 ->
    Printf.sprintf "select u.c from u, inserted t where u.a = t.a and u.a = %d"
      (k ())
  | 9 ->
    Printf.sprintf "select t.s from t, (select c from u) d where t.a = %d and %s"
      (k ()) (e ())
  | 10 ->
    Printf.sprintf "select a from t where a = %d union select a from u" (k ())
  | _ -> Printf.sprintf "select a from t where a >= %d and %s" (k ()) (e ())

(* Read sets compare as sorted (handle, sorted columns) lists. *)
let normalize pairs =
  List.sort compare
    (List.map (fun (h, cols) -> (Handle.id h, List.sort compare cols)) pairs)

let read_sets_compared = ref 0
let read_sets_beyond_result = ref 0

let check_read_set ~label ?params s oracle_s =
  let compiled ~access =
    let notes = ref 0 in
    let access = if access then Some (access_counting notes) else None in
    let run track =
      Dml.exec_cop ~track_selects:track ?access ?params (read_set_resolver ())
        indexed_db
        (Dml.compile_op indexed_db (Ast.Select_op s))
    in
    match run true with
    | r ->
      let tracked_notes = !notes in
      notes := 0;
      ignore (run false);
      if tracked_notes <> !notes then
        QCheck.Test.fail_reportf "%s@.read set bumped access counters (%d vs %d)"
          label tracked_notes !notes;
      Some r
    | exception Errors.Error _ -> None
  in
  List.iter
    (fun access ->
      match compiled ~access with
      | None -> ()
      | Some r ->
        let got =
          match r.Dml.affected with
          | Dml.A_select pairs -> pairs
          | _ -> QCheck.Test.fail_reportf "%s: select reported a write" label
        in
        let want = Dml.select_read_set (read_set_resolver ()) indexed_db oracle_s in
        if normalize got <> normalize want then
          QCheck.Test.fail_reportf "%s (access %b)@.compiled read set: %s@.oracle: %s"
            label access
            (String.concat " " (List.map (fun (h, _) -> string_of_int (Handle.id h)) got))
            (String.concat " " (List.map (fun (h, _) -> string_of_int (Handle.id h)) want));
        incr read_sets_compared;
        let rows = match r.Dml.result with Some rel -> List.length rel.Eval.rows | None -> 0 in
        if List.length want > rows then incr read_sets_beyond_result)
    [ true; false ]

let read_set_differential =
  QCheck.Test.make ~count:500
    ~name:"compiled read set = interpreted read-set oracle"
    (QCheck.make ~print:Fun.id gen_read_select)
    (fun sql ->
      let s = Parser.parse_select_string sql in
      check_read_set ~label:sql s s;
      true)

let read_set_param_differential =
  QCheck.Test.make ~count:200
    ~name:"compiled read set under EXECUTE = oracle over the bound select"
    (QCheck.make gen_param_case ~print:(fun (tpl, args) ->
         Printf.sprintf "%s / (%s)" tpl
           (String.concat ", " (List.map Value.to_string (Array.to_list args)))))
    (fun (template, args) ->
      let s =
        match Parser.parse_statement_string ("prepare p as " ^ template) with
        | Ast.Stmt_prepare (_, Ast.Select_op s) -> s
        | _ -> QCheck.Test.fail_reportf "template is not a select: %s" template
      in
      let bound =
        match Ast.subst_params_op args (Ast.Select_op s) with
        | Ast.Select_op s' -> s'
        | _ -> assert false
      in
      check_read_set ~label:template ~params:args s bound;
      true)

let test_read_sets_not_vacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "read sets compared (%d)" !read_sets_compared)
    true (!read_sets_compared > 200);
  Alcotest.(check bool)
    (Printf.sprintf "read sets beyond the result rows (%d)" !read_sets_beyond_result)
    true (!read_sets_beyond_result > 20)

(* ------------------------------------------------------------------ *)
(* Part B: engine-level differential                                   *)

(* The fault-injection harness's workload: a schema, a terminating
   rule set covering every trigger kind and action shape, and an
   external procedure that queries through the engine. *)

let schema_sql =
  "create table t (a int, b int);\n\
   create table u (a int, c int);\n\
   create table log (n int)"

let rules_sql =
  [
    "create rule r1 when inserted into t if exists (select * from inserted t \
     where a = 3) then insert into u values (3, 0)";
    "create rule r2 when deleted from t then delete from u where a in \
     (select a from deleted t)";
    "create rule r3 when updated t.a if (select count(*) from new updated \
     t.a where a = 5) > 0 then update u set c = c + 1 where a = 5";
    "create rule r4 when inserted into u or deleted from u or updated u.c \
     if (select count(*) from u where a = 99) > 3 then delete from u where \
     a = 99";
    "create rule r5 when updated t.b if (select count(*) from new updated \
     t.b where b > 100) > 0 then rollback";
    "create rule r6 when inserted into u then call note_u";
  ]

let note_u_proc ctx =
  let rel =
    ctx.Procedures.query (Parser.parse_select_string "select count(*) from u")
  in
  let n = match rel.Eval.rows with [ [| Value.Int n |] ] -> n | _ -> 0 in
  List.map
    (function
      | Ast.Stmt_op op -> op
      | _ -> Alcotest.fail "expected DML statements")
    (Parser.parse_script (Printf.sprintf "insert into log values (%d)" n))

let gen_small st = QCheck.Gen.int_bound 12 st

let gen_term st =
  let open QCheck.Gen in
  if int_bound 9 st = 0 then "null" else string_of_int (gen_small st)

(* One operation: inserts, deletes, updates and selects over both
   tables, occasionally tripping the rollback rule r5, and rarely a
   genuinely erroneous statement so the two paths must agree on
   diagnostics mid-workload too. *)
let gen_op st =
  let open QCheck.Gen in
  match int_bound 13 st with
  | 0 | 1 ->
    Printf.sprintf "insert into t values (%s, %s)" (gen_term st) (gen_term st)
  | 2 | 3 ->
    Printf.sprintf "insert into u values (%s, %s)" (gen_term st) (gen_term st)
  | 4 -> Printf.sprintf "delete from t where a = %s" (gen_term st)
  | 5 ->
    Printf.sprintf "delete from u where a in (%d, %d)" (gen_small st)
      (gen_small st)
  | 6 -> Printf.sprintf "update t set b = b + 1 where a = %d" (gen_small st)
  | 7 ->
    Printf.sprintf "update t set a = %d where a = %d" (gen_small st)
      (gen_small st)
  | 8 ->
    Printf.sprintf
      "update u set c = c + 1 where a in (select a from t where b = %d)"
      (gen_small st)
  | 9 -> Printf.sprintf "select a, b from t where a = %s" (gen_term st)
  | 10 ->
    Printf.sprintf "select t.a, u.c from t, u where t.a = u.a and u.c > %d"
      (gen_small st)
  | 11 ->
    Printf.sprintf "update t set b = %d where a = %d"
      (if int_bound 3 st = 0 then 200 else gen_small st)
      (gen_small st)
  | 12 ->
    Printf.sprintf "insert into u values (99, %d); insert into u values \
                    (99, %d)" (gen_small st) (gen_small st)
  | _ ->
    Printf.sprintf "insert into t values (%d, %d, %d)" (gen_small st)
      (gen_small st) (gen_small st)

(* A workload: transaction blocks interleaved with occasional DDL that
   bumps the engine's generation counter and must invalidate cached
   compiled rule forms. *)
let gen_step st =
  let open QCheck.Gen in
  match int_bound 15 st with
  | 0 -> `Ddl "create index ix_diff_ta on t (a)"
  | 1 -> `Ddl "drop index ix_diff_ta"
  | _ ->
    let n = 1 + int_bound 3 st in
    `Block (String.concat "; " (List.init n (fun _ -> gen_op st)))

let gen_workload st =
  QCheck.Gen.list_size (QCheck.Gen.int_range 8 20) gen_step st

let print_workload steps =
  String.concat "\n"
    (List.map (function `Ddl s -> "[ddl] " ^ s | `Block s -> s) steps)

let make_system ~config () =
  let s = system ~config schema_sql in
  System.register_procedure s "note_u" note_u_proc;
  List.iter (run s) rules_sql;
  Engine.set_tracing (System.engine s) true;
  s

let run_block s sql =
  match System.exec_block s sql with
  | outcome, rels ->
    Ok (outcome, List.map (fun r -> (Array.to_list r.Eval.cols, r.Eval.rows)) rels)
  | exception Errors.Error e -> Error (Errors.to_string e)

let run_ddl s sql =
  match run s sql with
  | () -> Ok ()
  | exception Errors.Error e -> Error (Errors.to_string e)

let firings_fired = ref 0

let check_same label a b =
  match a, b with
  | Error ea, Error eb ->
    if ea <> eb then
      QCheck.Test.fail_reportf "%s: errors differ:@.%s@.vs@.%s" label ea eb
  | Ok (oa, ra), Ok (ob, rb) ->
    if oa <> ob then QCheck.Test.fail_reportf "%s: outcomes differ" label;
    if List.length ra <> List.length rb then
      QCheck.Test.fail_reportf "%s: result counts differ" label;
    List.iter2
      (fun (ca, rsa) (cb, rsb) ->
        if ca <> cb then QCheck.Test.fail_reportf "%s: columns differ" label;
        if not
             (List.length rsa = List.length rsb
             && List.for_all2 Row.equal rsa rsb)
        then QCheck.Test.fail_reportf "%s: rows differ" label)
      ra rb
  | Ok _, Error e ->
    QCheck.Test.fail_reportf "%s: compiled ok, reference errored: %s" label e
  | Error e, Ok _ ->
    QCheck.Test.fail_reportf "%s: compiled errored (%s), reference ok" label e

let harness_tables = [ "t"; "u"; "log" ]

(* Rule firings as observable behaviour: name + condition verdict per
   considered rule, in order. *)
let firing_trace s =
  List.filter_map
    (function
      | Engine.Ev_considered { rule; condition_held } ->
        Some (rule, condition_held)
      | Engine.Ev_fired { rule; _ } ->
        incr firings_fired;
        Some (rule, true)
      | _ -> None)
    (Engine.trace (System.engine s))

let engine_differential_once ~config steps =
  let s_compiled = make_system ~config () in
  let s_reference =
    make_system ~config:{ config with Engine.reference_eval = true } ()
  in
  List.iter
    (fun step ->
      match step with
      | `Ddl sql ->
        let rc = run_ddl s_compiled sql in
        let rr = run_ddl s_reference sql in
        (match rc, rr with
        | Ok (), Ok () | Error _, Error _ -> ()
        | _ -> QCheck.Test.fail_reportf "ddl outcome differs: %s" sql)
      | `Block sql ->
        let rc = run_block s_compiled sql in
        let rr = run_block s_reference sql in
        check_same ("block: " ^ sql) rc rr;
        let tc = firing_trace s_compiled and tr = firing_trace s_reference in
        if tc <> tr then
          QCheck.Test.fail_reportf "firing traces differ after: %s" sql)
    steps;
  (* final states, read through the reference evaluator on both systems
     so the comparison itself is independent of the compiled path *)
  let contents s tbl =
    let db = Engine.database (System.engine s) in
    (Eval.eval_select (Eval.base_resolver db)
       (Parser.parse_select_string ("select * from " ^ tbl)))
      .Eval.rows
  in
  List.iter
    (fun tbl ->
      let rc = contents s_compiled tbl and rr = contents s_reference tbl in
      if not (List.length rc = List.length rr && List.for_all2 Row.equal rc rr)
      then QCheck.Test.fail_reportf "final state of %s differs" tbl)
    harness_tables

let engine_differential =
  QCheck.Test.make ~count:40
    ~name:"engine with compiled evaluators = engine with interpreter"
    (QCheck.make ~print:print_workload gen_workload)
    (fun steps ->
      engine_differential_once ~config:Engine.default_config steps;
      engine_differential_once
        ~config:
          { Engine.default_config with optimize = true; track_selects = true }
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Non-vacuity: the corpus must actually have exercised both success   *)
(* and error paths, and the engine differential must have fired rules. *)

let test_planner_not_vacuous () =
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s in planned runs (%d)" what n)
        true (n > 5))
    [
      ("index probes", !planned_index_probes);
      ("range probes", !planned_range_probes);
      ("hash joins", !planned_hash_joins);
    ];
  (* the skipped-row allowance must stay the exception *)
  Alcotest.(check bool)
    (Printf.sprintf "planned runs compared exactly (%d; %d hid an error)"
       !planned_exact !planned_hidden_errors)
    true
    (!planned_exact > 10 * !planned_hidden_errors)

let test_corpus_not_vacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "successful evaluations seen (%d)" !ok_results)
    true (!ok_results > 100);
  Alcotest.(check bool)
    (Printf.sprintf "error diagnostics compared (%d)" !error_results)
    true (!error_results > 100);
  Alcotest.(check bool)
    (Printf.sprintf "rules fired during engine differential (%d)"
       !firings_fired)
    true
    (!firings_fired > 0)

let suite =
  [
    qtest select_differential;
    qtest param_differential;
    qtest predicate_differential;
    qtest engine_differential;
    Alcotest.test_case "differential corpus is not vacuous" `Quick
      test_corpus_not_vacuous;
    Alcotest.test_case "planned differential is not vacuous" `Quick
      test_planner_not_vacuous;
    qtest read_set_differential;
    qtest read_set_param_differential;
    Alcotest.test_case "read-set differential is not vacuous" `Quick
      test_read_sets_not_vacuous;
  ]
