(* Materialization of the paper's logical transition tables (Section 3)
   from a rule's composite transition information:

   - [inserted t]:        current values of tuples of t inserted by the
                          (composite) transition;
   - [deleted t]:         previous-state values of deleted tuples of t;
   - [old updated t[.c]]: previous-state values of updated tuples of t
                          (restricted to those where column c was
                          updated, for the ".c" form);
   - [new updated t[.c]]: current values of the same tuples;
   - [selected t[.c]]:    current values of retrieved tuples (Section
                          5.1 extension).

   "Previous state" means the state at the start of the rule's
   composite transition; Figure 1 records those values incrementally in
   the trans-info, so materialization needs only the trans-info and the
   current database state. *)

open Relational
module Ast = Sqlf.Ast
module Eval = Sqlf.Eval

(* Transition-table columns are the base table's columns; the names
   array is the one cached in the stored table value. *)
let relation_of name tbl rows =
  { Eval.rel_name = name; cols = Table.col_names tbl; rows }

(* Rows come out in handle order (insertion order): sets and maps over
   handles enumerate in that order. *)
let materialize (ti : Trans_info.t) ~current_db (tt : Ast.trans_table) :
    Eval.relation =
  let t = Ast.trans_table_base tt in
  let tbl = Database.table current_db t in
  let handles = Trans_info.handles ti tt in
  let rows =
    match tt with
    | Ast.Tt_inserted _ | Ast.Tt_new_updated _ ->
      List.map (Database.get_row current_db) handles
    | Ast.Tt_deleted _ | Ast.Tt_old_updated _ -> List.map (Trans_info.old_row ti) handles
    | Ast.Tt_selected _ -> List.filter_map (Database.find_row current_db) handles
  in
  relation_of t tbl rows

(* A resolver that serves base tables from [db] and transition tables
   from [ti]; this is the evaluation environment for a rule's condition
   and action (Section 4.1: "evaluation of R's condition may depend on
   E1, S1, and S0").

   Both [ti] and [db] are fixed for the life of one resolver (the
   engine builds a fresh resolver per operation and per condition
   evaluation), so materializations are memoized per instance: a
   predicate that joins against the same transition table once per
   candidate row pays for the handle-set traversal only once. *)
let resolver (ti : Trans_info.t) db : Eval.resolver =
  let trans_memo : (Ast.trans_table, Eval.relation) Hashtbl.t =
    Hashtbl.create 4
  in
  let base_memo : (string, Eval.relation) Hashtbl.t = Hashtbl.create 4 in
  function
  | Ast.Base name -> (
    match Hashtbl.find_opt base_memo name with
    | Some rel -> rel
    | None ->
      let rel = Eval.relation_of_table (Database.table db name) in
      Hashtbl.add base_memo name rel;
      rel)
  | Ast.Transition tt -> (
    match Hashtbl.find_opt trans_memo tt with
    | Some rel -> rel
    | None ->
      let rel = materialize ti ~current_db:db tt in
      Hashtbl.add trans_memo tt rel;
      rel)
  | Ast.Derived _ -> assert false
