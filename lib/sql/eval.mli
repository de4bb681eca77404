(** The reference evaluator.

    The plain set-oriented semantics of the paper's Section 2: every
    FROM list is the nested-loop cross product of fully realized
    sources, the WHERE clause filters it row by row, and every embedded
    select is re-evaluated where it occurs.  There are no indexes, hash
    joins, cost model or memoization here — the compiling executor
    ({!Compile}, planning through {!Plan}) is the only executor of
    statements, rule conditions and actions.  This module is its
    differential oracle and shares none of its planning code.

    The evaluator works over {!relation}s — named column lists plus
    rows — rather than stored tables, so the same machinery evaluates
    base tables, derived tables and the paper's transition tables.  A
    {!resolver} maps AST table sources to relations; the rules engine
    supplies a resolver that also serves the triggering rule's
    transition tables.

    Three-valued logic: predicates evaluate to [Bool _] or [Null]
    (unknown); a row is selected only when the predicate is definitely
    true. *)

open Relational

type relation = { rel_name : string; cols : string array; rows : Row.t list }

type resolver = Ast.table_source -> relation

val relation_of_table : Table.t -> relation

val base_resolver : Database.t -> resolver
(** A resolver over base tables only; referencing a transition table
    raises [Invalid_transition_reference]. *)

(** {2 Environments} *)

type binding = {
  bind_name : string;
  bind_cols : string array;
  bind_row : Row.t;
}

type env = binding list list
(** Scopes, innermost first; each frame is the from-list of one
    select.  Column references resolve innermost-first; within a scope
    an unqualified reference must be unambiguous. *)

val empty_env : env

(** {2 Evaluation} *)

val eval_select : ?outer:env -> resolver -> Ast.select -> relation
(** Evaluate a select operation: cross product of the from-list, WHERE
    filter, grouping and aggregates, HAVING, projection, DISTINCT,
    ORDER BY, LIMIT.  [outer] supplies enclosing scopes for correlated
    evaluation. *)

val eval_expr_in : ?outer:env -> resolver -> env -> Ast.expr -> Value.t
(** Evaluate an expression in the given environment (aggregates are
    rejected outside grouped queries). *)

val eval_predicate : ?outer:env -> resolver -> env -> Ast.expr -> bool
(** Evaluate a predicate and collapse three-valued logic: [true] only
    when the predicate is definitely true. *)

(** {2 Shared semantics}

    Pieces of the reference evaluator reused verbatim by the compiling
    executor ({!Compile}), exported so the two cannot drift:
    three-valued-logic plumbing, IN semantics, ORDER BY comparison, and
    the grouped-query / projection-name classification. *)

val truth_value : Value.truth -> Value.t
val value_truth : Value.t -> Value.truth
(** Raises a type error on non-boolean predicate values. *)

val in_semantics : Value.t -> Value.t list -> Value.t
(** SQL IN: TRUE if some element equals, UNKNOWN if none equals but
    some comparison was unknown, FALSE otherwise. *)

val sort_by_keys :
  ((Value.t * [ `Asc | `Desc ]) list * 'a) list ->
  ((Value.t * [ `Asc | `Desc ]) list * 'a) list
(** Stable sort of values tagged with ORDER BY keys. *)

val select_contains_agg : Ast.select -> bool
(** Is the select grouped (GROUP BY present, or aggregates in the
    projections or HAVING)? *)

val default_proj_name : Ast.expr -> string
(** Output column name of an unaliased projection. *)

