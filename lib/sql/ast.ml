(* Abstract syntax for the dialect of the paper:

   - data manipulation operations and operation blocks (Section 2.1),
   - queries with embedded selects, aggregates and transition-table
     references (Section 3),
   - rule definition and priority statements (Sections 3 and 4.4),
   - the Section 5 extensions (select operations inside blocks,
     external-procedure actions, rule triggering points),
   - the DDL needed around them (create/drop table).  *)

open Relational

type binop = Add | Sub | Mul | Div | Mod | Concat
type cmpop = Eq | Neq | Lt | Le | Gt | Ge
type agg_fn = Count_star | Count | Sum | Avg | Min | Max

(* A reference to one of the paper's logical transition tables.  The
   [string option] is the column for the ".c" forms. *)
type trans_table =
  | Tt_inserted of string
  | Tt_deleted of string
  | Tt_old_updated of string * string option
  | Tt_new_updated of string * string option
  | Tt_selected of string * string option (* Section 5.1 extension *)

type expr =
  | Lit of Value.t
  | Param of int (* positional '?' parameter, 0-based in statement order *)
  | Col of { qualifier : string option; column : string }
  | Binop of binop * expr * expr
  | Neg of expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr
  | In_list of expr * expr list
  | In_select of expr * select
  | Not_in_list of expr * expr list
  | Not_in_select of expr * select
  | Exists of select
  | Between of expr * expr * expr
  | Like of expr * expr
  | Scalar_select of select (* embedded select used as a value *)
  | Agg of agg_fn * expr option (* aggregate; None only for count-star *)
  | Fn of string * expr list (* scalar function: abs, upper, coalesce, ... *)
  | Case of (expr * expr) list * expr option

and table_source =
  | Base of string
  | Transition of trans_table
  | Derived of select

and from_item = { source : table_source; alias : string option }

and proj = Star | Table_star of string | Proj of expr * string option

(* Compound (set) operations: UNION dedupes, UNION ALL keeps
   duplicates, EXCEPT and INTERSECT use set semantics. *)
and compound_op = Union | Union_all | Except | Intersect

and select = {
  distinct : bool;
  projections : proj list;
  from : from_item list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  compounds : (compound_op * select) list;
      (* further select cores combined with this one; the [order_by]
         and [limit] below then apply to the combined result *)
  order_by : (expr * [ `Asc | `Desc ]) list;
  limit : int option;
}

(* Data manipulation operations (paper Section 2.1; [Select_op] is the
   Section 5.1 extension allowing retrieval inside operation blocks). *)
type op =
  | Insert of {
      table : string;
      columns : string list option;
      source : [ `Values of expr list list | `Select of select ];
    }
  | Delete of { table : string; where : expr option }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Select_op of select

type op_block = op list

(* Rule definition (Section 3). *)
type basic_trans_pred =
  | Tp_inserted of string
  | Tp_deleted of string
  | Tp_updated of string * string option
  | Tp_selected of string * string option (* Section 5.1 extension *)

type action =
  | Act_block of op_block
  | Act_rollback
  | Act_call of string (* Section 5.2 extension: external procedure *)

type rule_def = {
  rule_name : string;
  trans_preds : basic_trans_pred list; (* disjunction *)
  condition : expr option;
  action : action;
}

(* DDL: column and table constraints accepted by CREATE TABLE.  They
   are not enforced by storage; the facade compiles them to production
   rules via the constraint compiler — the paper's own suggested use. *)
type col_constraint =
  | C_not_null
  | C_primary_key
  | C_unique
  | C_default of Value.t
  | C_references of string * string option
  | C_check of expr

type col_def = {
  cd_name : string;
  cd_type : Schema.col_type;
  cd_constraints : col_constraint list;
}

type table_constraint =
  | T_primary_key of string list
  | T_unique of string list
  | T_foreign_key of {
      columns : string list;
      parent : string;
      parent_columns : string list option;
      on_delete : [ `Cascade | `Restrict | `Set_null ];
    }
  | T_check of expr

type create_table = {
  ct_name : string;
  ct_columns : col_def list;
  ct_constraints : table_constraint list;
}

(* EXPLAIN renders the access-path decisions (scan vs index probe) the
   executor would take, without executing.  The rule form explains the
   selects embedded in a named rule's condition. *)
type explain_target = Explain_op of op | Explain_rule of string

type statement =
  | Stmt_create_table of create_table
  | Stmt_drop_table of string
  | Stmt_create_rule of rule_def
  | Stmt_drop_rule of string
  | Stmt_priority of string * string (* first has priority over second *)
  | Stmt_activate of string
  | Stmt_deactivate of string
  | Stmt_op of op
  | Stmt_begin
  | Stmt_commit
  | Stmt_rollback
  | Stmt_process_rules (* Section 5.3: explicit rule triggering point *)
  | Stmt_create_assertion of string * expr
      (* SQL-assertion-style cross-table constraint, compiled to rules *)
  | Stmt_drop_assertion of string
  | Stmt_create_index of {
      ix_name : string;
      ix_table : string;
      ix_column : string;
      ix_kind : Index.kind;
    }
      (* single-column index: an equality access path ([`Hash]) or an
         equality-and-range access path ([`Ordered]) *)
  | Stmt_drop_index of string
  | Stmt_show_tables
  | Stmt_show_rules
  | Stmt_describe of string
  | Stmt_explain of explain_target
  | Stmt_prepare of string * op
      (* PREPARE name AS <op>: parse and compile once, bind per
         EXECUTE.  Only DML operations are preparable; the body is the
         only place positional parameters may appear. *)
  | Stmt_execute of string * Value.t list
      (* EXECUTE name (v, ...): bind constants into the prepared
         operation's parameter frame and run the cached closure. *)
  | Stmt_deallocate of string option (* None deallocates all *)

(* ------------------------------------------------------------------ *)
(* Structural helpers used by the rule engine and static analysis.    *)

let trans_table_base = function
  | Tt_inserted t | Tt_deleted t
  | Tt_old_updated (t, _) | Tt_new_updated (t, _)
  | Tt_selected (t, _) -> t

let trans_pred_table = function
  | Tp_inserted t | Tp_deleted t | Tp_updated (t, _) | Tp_selected (t, _) -> t

(* Does a transition-table reference fall within what a given basic
   transition predicate licenses (paper Section 3's syntactic
   restriction)?  A column-unspecific predicate ("updated t") licenses
   the column-specific tables too, since they expose a subset of the
   same information. *)
let trans_table_matches_pred tt pred =
  match tt, pred with
  | Tt_inserted t, Tp_inserted t' -> String.equal t t'
  | Tt_deleted t, Tp_deleted t' -> String.equal t t'
  | (Tt_old_updated (t, None) | Tt_new_updated (t, None)), Tp_updated (t', None)
    -> String.equal t t'
  | (Tt_old_updated (t, Some _) | Tt_new_updated (t, Some _)),
    Tp_updated (t', None) -> String.equal t t'
  | (Tt_old_updated (t, Some c) | Tt_new_updated (t, Some c)),
    Tp_updated (t', Some c') -> String.equal t t' && String.equal c c'
  | Tt_selected (t, None), Tp_selected (t', None) -> String.equal t t'
  | Tt_selected (t, Some _), Tp_selected (t', None) -> String.equal t t'
  | Tt_selected (t, Some c), Tp_selected (t', Some c') ->
    String.equal t t' && String.equal c c'
  | _ -> false

(* Fold over every transition-table reference appearing in an
   expression (through embedded selects). *)
let rec fold_trans_tables_expr f acc expr =
  let fe = fold_trans_tables_expr f in
  match expr with
  | Lit _ | Param _ | Col _ -> acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) | Like (a, b) ->
    fe (fe acc a) b
  | Neg a | Not a | Is_null a | Is_not_null a -> fe acc a
  | In_list (a, es) | Not_in_list (a, es) -> List.fold_left fe (fe acc a) es
  | In_select (a, s) | Not_in_select (a, s) ->
    fold_trans_tables_select f (fe acc a) s
  | Exists s | Scalar_select s -> fold_trans_tables_select f acc s
  | Between (a, b, c) -> fe (fe (fe acc a) b) c
  | Agg (_, Some a) -> fe acc a
  | Agg (_, None) -> acc
  | Fn (_, args) -> List.fold_left fe acc args
  | Case (branches, else_) ->
    let acc =
      List.fold_left (fun acc (c, v) -> fe (fe acc c) v) acc branches
    in
    Option.fold ~none:acc ~some:(fe acc) else_

and fold_trans_tables_select f acc (s : select) =
  let acc =
    List.fold_left
      (fun acc item ->
        match item.source with
        | Base _ -> acc
        | Transition tt -> f acc tt
        | Derived sub -> fold_trans_tables_select f acc sub)
      acc s.from
  in
  let acc =
    List.fold_left
      (fun acc p ->
        match p with
        | Star | Table_star _ -> acc
        | Proj (e, _) -> fold_trans_tables_expr f acc e)
      acc s.projections
  in
  let fo acc = function
    | None -> acc
    | Some e -> fold_trans_tables_expr f acc e
  in
  let acc = fo acc s.where in
  let acc = List.fold_left (fold_trans_tables_expr f) acc s.group_by in
  let acc = fo acc s.having in
  let acc =
    List.fold_left
      (fun acc (_, sub) -> fold_trans_tables_select f acc sub)
      acc s.compounds
  in
  List.fold_left (fun acc (e, _) -> fold_trans_tables_expr f acc e) acc
    s.order_by

let fold_trans_tables_op f acc = function
  | Insert { source = `Values rows; _ } ->
    List.fold_left (List.fold_left (fold_trans_tables_expr f)) acc rows
  | Insert { source = `Select s; _ } -> fold_trans_tables_select f acc s
  | Delete { where; _ } | Update { where; sets = []; _ } ->
    Option.fold ~none:acc ~some:(fold_trans_tables_expr f acc) where
  | Update { sets; where; _ } ->
    let acc =
      List.fold_left (fun acc (_, e) -> fold_trans_tables_expr f acc e) acc sets
    in
    Option.fold ~none:acc ~some:(fold_trans_tables_expr f acc) where
  | Select_op s -> fold_trans_tables_select f acc s

let trans_tables_of_rule (r : rule_def) =
  let acc =
    match r.condition with
    | None -> []
    | Some c -> fold_trans_tables_expr (fun acc tt -> tt :: acc) [] c
  in
  match r.action with
  | Act_rollback | Act_call _ -> acc
  | Act_block ops ->
    List.fold_left (fold_trans_tables_op (fun acc tt -> tt :: acc)) acc ops

(* Fold over every base-table reference in an expression or select
   (through embedded selects); used to derive the triggering predicates
   of compiled assertions. *)
let rec fold_base_tables_expr f acc expr =
  let fe = fold_base_tables_expr f in
  match expr with
  | Lit _ | Param _ | Col _ -> acc
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) | Like (a, b) ->
    fe (fe acc a) b
  | Neg a | Not a | Is_null a | Is_not_null a -> fe acc a
  | In_list (a, es) | Not_in_list (a, es) -> List.fold_left fe (fe acc a) es
  | In_select (a, s) | Not_in_select (a, s) ->
    fold_base_tables_select f (fe acc a) s
  | Exists s | Scalar_select s -> fold_base_tables_select f acc s
  | Between (a, b, c) -> fe (fe (fe acc a) b) c
  | Agg (_, Some a) -> fe acc a
  | Agg (_, None) -> acc
  | Fn (_, args) -> List.fold_left fe acc args
  | Case (branches, else_) ->
    let acc =
      List.fold_left (fun acc (c, v) -> fe (fe acc c) v) acc branches
    in
    Option.fold ~none:acc ~some:(fe acc) else_

and fold_base_tables_select f acc (s : select) =
  let acc =
    List.fold_left
      (fun acc item ->
        match item.source with
        | Base t -> f acc t
        | Transition _ -> acc
        | Derived sub -> fold_base_tables_select f acc sub)
      acc s.from
  in
  let acc =
    List.fold_left
      (fun acc p ->
        match p with
        | Star | Table_star _ -> acc
        | Proj (e, _) -> fold_base_tables_expr f acc e)
      acc s.projections
  in
  let fo acc = function
    | None -> acc
    | Some e -> fold_base_tables_expr f acc e
  in
  let acc = fo acc s.where in
  let acc = List.fold_left (fold_base_tables_expr f) acc s.group_by in
  let acc = fo acc s.having in
  let acc =
    List.fold_left
      (fun acc (_, sub) -> fold_base_tables_select f acc sub)
      acc s.compounds
  in
  List.fold_left (fun acc (e, _) -> fold_base_tables_expr f acc e) acc
    s.order_by

let base_tables_of_expr e =
  List.rev (fold_base_tables_expr
    (fun acc t -> if List.exists (String.equal t) acc then acc else t :: acc)
    [] e)

(* ------------------------------------------------------------------ *)
(* Positional parameters.                                              *)

(* Map every [Param i] in an expression through [f].  The reference
   evaluator's path of EXECUTE substitutes argument literals into the
   AST with this (the paper-faithful reading of "bind constants"); the
   compiled path binds a parameter frame instead, and the differential
   oracle proves the two agree. *)
let rec map_params_expr f expr =
  let fe = map_params_expr f in
  match expr with
  | Lit _ | Col _ -> expr
  | Param i -> f i
  | Binop (op, a, b) -> Binop (op, fe a, fe b)
  | Neg a -> Neg (fe a)
  | Cmp (op, a, b) -> Cmp (op, fe a, fe b)
  | And (a, b) -> And (fe a, fe b)
  | Or (a, b) -> Or (fe a, fe b)
  | Not a -> Not (fe a)
  | Is_null a -> Is_null (fe a)
  | Is_not_null a -> Is_not_null (fe a)
  | In_list (a, es) -> In_list (fe a, List.map fe es)
  | In_select (a, s) -> In_select (fe a, map_params_select f s)
  | Not_in_list (a, es) -> Not_in_list (fe a, List.map fe es)
  | Not_in_select (a, s) -> Not_in_select (fe a, map_params_select f s)
  | Exists s -> Exists (map_params_select f s)
  | Between (a, b, c) -> Between (fe a, fe b, fe c)
  | Like (a, b) -> Like (fe a, fe b)
  | Scalar_select s -> Scalar_select (map_params_select f s)
  | Agg (fn, e) -> Agg (fn, Option.map fe e)
  | Fn (name, args) -> Fn (name, List.map fe args)
  | Case (branches, else_) ->
    Case
      ( List.map (fun (c, v) -> (fe c, fe v)) branches,
        Option.map fe else_ )

and map_params_select f (s : select) =
  let fe = map_params_expr f in
  let item it =
    match it.source with
    | Base _ | Transition _ -> it
    | Derived sub -> { it with source = Derived (map_params_select f sub) }
  in
  {
    s with
    projections =
      List.map
        (function
          | (Star | Table_star _) as p -> p
          | Proj (e, a) -> Proj (fe e, a))
        s.projections;
    from = List.map item s.from;
    where = Option.map fe s.where;
    group_by = List.map fe s.group_by;
    having = Option.map fe s.having;
    compounds =
      List.map (fun (op, sub) -> (op, map_params_select f sub)) s.compounds;
    order_by = List.map (fun (e, d) -> (fe e, d)) s.order_by;
  }

let map_params_op f = function
  | Insert { table; columns; source = `Values rows } ->
    Insert
      {
        table;
        columns;
        source = `Values (List.map (List.map (map_params_expr f)) rows);
      }
  | Insert { table; columns; source = `Select s } ->
    Insert { table; columns; source = `Select (map_params_select f s) }
  | Delete { table; where } ->
    Delete { table; where = Option.map (map_params_expr f) where }
  | Update { table; sets; where } ->
    Update
      {
        table;
        sets = List.map (fun (c, e) -> (c, map_params_expr f e)) sets;
        where = Option.map (map_params_expr f) where;
      }
  | Select_op s -> Select_op (map_params_select f s)

(* The parser numbers parameters 0..n-1 in statement order, so the
   count is one past the highest index. *)
let param_count_op op =
  let n = ref 0 in
  ignore
    (map_params_op
       (fun i ->
         if i >= !n then n := i + 1;
         Param i)
       op);
  !n

let subst_params_op args op =
  map_params_op
    (fun i ->
      if i < 0 || i >= Array.length args then
        Errors.semantic "parameter %d out of range" (i + 1)
      else Lit args.(i))
    op

(* The dual of substitution, for the workload's prepared-statement
   mode: rewrite an operation so every literal in a bindable position
   — INSERT VALUES rows, UPDATE set right-hand sides, WHERE predicates
   at every nesting level — becomes the next positional parameter,
   returning the rewritten operation with the collected arguments.
   Projections, GROUP BY, HAVING and ORDER BY are left alone: a
   parameter there would change output naming, grouping structure or
   positional-ordering semantics rather than just late-bind a
   constant.  Traversal is forced left-to-right (constructor arguments
   alone would evaluate right-to-left), so the numbering matches the
   textual `?` order and [Pretty.op_str] of the result is a valid
   PREPARE body for the same argument vector. *)
let parameterize_op op =
  let collected = ref [] and n = ref 0 in
  let bind v =
    let i = !n in
    incr n;
    collected := v :: !collected;
    Param i
  in
  let rec pe expr =
    match expr with
    | Lit v -> bind v
    | Col _ | Param _ -> expr
    | Binop (o, a, b) ->
      let a = pe a in
      let b = pe b in
      Binop (o, a, b)
    | Neg a -> Neg (pe a)
    | Cmp (o, a, b) ->
      let a = pe a in
      let b = pe b in
      Cmp (o, a, b)
    | And (a, b) ->
      let a = pe a in
      let b = pe b in
      And (a, b)
    | Or (a, b) ->
      let a = pe a in
      let b = pe b in
      Or (a, b)
    | Not a -> Not (pe a)
    | Is_null a -> Is_null (pe a)
    | Is_not_null a -> Is_not_null (pe a)
    | In_list (a, es) ->
      let a = pe a in
      let es = List.map pe es in
      In_list (a, es)
    | In_select (a, s) ->
      let a = pe a in
      let s = ps s in
      In_select (a, s)
    | Not_in_list (a, es) ->
      let a = pe a in
      let es = List.map pe es in
      Not_in_list (a, es)
    | Not_in_select (a, s) ->
      let a = pe a in
      let s = ps s in
      Not_in_select (a, s)
    | Exists s -> Exists (ps s)
    | Between (a, lo, hi) ->
      let a = pe a in
      let lo = pe lo in
      let hi = pe hi in
      Between (a, lo, hi)
    | Like (a, b) ->
      let a = pe a in
      let b = pe b in
      Like (a, b)
    | Scalar_select s -> Scalar_select (ps s)
    | Agg (fn, e) -> Agg (fn, Option.map pe e)
    | Fn (name, args) -> Fn (name, List.map pe args)
    | Case (branches, else_) ->
      let branches =
        List.map
          (fun (c, v) ->
            let c = pe c in
            let v = pe v in
            (c, v))
          branches
      in
      Case (branches, Option.map pe else_)
  and ps (s : select) =
    let from =
      List.map
        (fun it ->
          match it.source with
          | Base _ | Transition _ -> it
          | Derived sub -> { it with source = Derived (ps sub) })
        s.from
    in
    let where = Option.map pe s.where in
    let compounds = List.map (fun (o, sub) -> (o, ps sub)) s.compounds in
    { s with from; where; compounds }
  in
  let op' =
    match op with
    | Insert { table; columns; source = `Values rows } ->
      Insert
        { table; columns; source = `Values (List.map (List.map pe) rows) }
    | Insert { table; columns; source = `Select s } ->
      Insert { table; columns; source = `Select (ps s) }
    | Delete { table; where } ->
      Delete { table; where = Option.map pe where }
    | Update { table; sets; where } ->
      let sets = List.map (fun (c, e) -> (c, pe e)) sets in
      let where = Option.map pe where in
      Update { table; sets; where }
    | Select_op s -> Select_op (ps s)
  in
  (op', Array.of_list (List.rev !collected))
