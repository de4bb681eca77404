(** Execution of data manipulation operations with their affected sets
    (paper Section 2.1):

    - insert: the handles of the inserted tuples;
    - delete: the handles of the removed tuples together with their
      values (after execution the handles identify tuples of a previous
      database state);
    - update: one (handle, columns) entry per selected tuple with its
      old row — the affected set includes tuples whose stored value did
      not change;
    - select (Section 5.1 extension): the handles and columns read.

    Each operation runs against a snapshot of the state at its start:
    tuples are identified first, then changed, so a subquery in a
    predicate or SET expression never observes the operation's own
    partial effects. *)

open Relational

type affected =
  | A_insert of Handle.t list
  | A_delete of (Handle.t * Row.t) list
  | A_update of (Handle.t * string list * Row.t) list  (** old rows *)
  | A_select of (Handle.t * string list) list

type op_result = {
  db : Database.t;
  affected : affected;
  result : Eval.relation option;  (** rows produced, for select operations *)
}

val exec_op :
  ?track_selects:bool ->
  ?optimize:bool ->
  ?access:Plan.access ->
  Eval.resolver ->
  Database.t ->
  Ast.op ->
  op_result
(** Compile one operation ({!compile_op}) and run it ({!exec_cop}).
    [track_selects] (default [false]) computes the Section 5.1 read
    set for select operations: precise (rows satisfying the predicate)
    for single-table selects, conservative (every row of each base
    table in the top-level FROM) otherwise.  [optimize] (default
    [true]) enables uncorrelated-subquery caching for the operation.
    [access] installs access-path hooks so sargable predicates over
    indexed columns are satisfied by index probes instead of scans. *)

val select_read_set :
  Eval.resolver -> Database.t -> Ast.select -> (Handle.t * string list) list
(** The Section 5.1 read set of a select, stated directly: for a select
    with one base table in its top-level FROM and no GROUP BY, the rows
    of that table whose WHERE — evaluated with only that table bound —
    holds or raises; otherwise every row of each top-level base table.
    Each handle is paired with the columns the select references.  The
    reference path computes read sets with it by rescanning the table
    through {!Eval}; the compiled path derives the same set from its own
    pass, and the differential tests check the two against each other. *)

(** {2 Compiled operations}

    The rules engine caches each rule's action block in compiled form
    (keyed on a DDL generation counter) so cascades re-enter closures
    instead of re-walking the AST. *)

type cop
(** A compiled operation.  Valid for the catalog it was compiled
    against: any DDL invalidates it. *)

val compile_op : Database.t -> Ast.op -> cop
(** Total: an operation the compiler cannot resolve against the
    catalog compiles to a fallback that runs through the reference
    evaluator, reproducing its error exactly. *)

val reference_op : Ast.op -> cop
(** The operation run through the planner-free reference evaluator
    ({!Eval}) with victims found by full scans: the form a reference
    engine caches in place of a compiled one.  Access hooks are not
    consulted; EXECUTE parameters are substituted into the tree. *)

val exec_cop :
  ?track_selects:bool ->
  ?optimize:bool ->
  ?access:Plan.access ->
  ?params:Value.t array ->
  Eval.resolver ->
  Database.t ->
  cop ->
  op_result
(** Run a compiled operation against a (possibly different) database
    state with the same catalog.  Hits the same [Dml_op] fault site as
    {!exec_op}.  [params] is the EXECUTE parameter frame: compiled
    [Param] closures read it positionally; the reference form
    substitutes the values into the AST instead. *)
