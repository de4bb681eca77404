(** The access-path planner's shared pieces.

    The compiling executor ({!Compile}) is the only planner: it chooses
    between scans, index probes, range probes and hash joins with the
    definitions below, and EXPLAIN reports the same decisions.  The
    reference evaluator ({!Eval}) uses none of this module, so a planner
    bug cannot hide in both sides of the differential tests. *)

open Relational

(** {2 Access paths}

    When a caller supplies {!access} hooks, base tables in a from-list
    are realized lazily: a sargable equality/IN conjunct of the WHERE
    clause over an indexed column is satisfied by an index probe
    instead of a scan.  A probe returns matching rows in handle
    (insertion) order — an order-preserving subsequence of the scan —
    and the full predicate is still applied afterwards, so results are
    identical either way. *)

type access = {
  acc_cols : table:string -> string array option;
      (** a base table's column names, without materializing its rows;
          [None] for an unknown table (forcing the eager path) *)
  acc_probe :
    table:string ->
    column:string ->
    Value.t list ->
    (Handle.t * Row.t) list option;
      (** probe any index over the column; [None] when no usable index
          exists *)
  acc_range :
    table:string ->
    column:string ->
    lower:(Value.t * bool) option ->
    upper:(Value.t * bool) option ->
    (Handle.t * Row.t) list option;
      (** probe an ordered index over the column for a key range (bound
          value, inclusive?); [None] when no ordered index exists or a
          bound is type-incompatible *)
  acc_note :
    table:string ->
    [ `Seq_scan | `Index_probe | `Range_probe | `Hash_join_build
    | `Hash_join_probe ] ->
    unit;
      (** called with every access decision the executor takes — once
          per base-table access for scans/probes, once per hash-join
          build and once per probe into a built join table — for
          EXPLAIN-style statistics *)
  acc_index : table:string -> column:string -> string option;
      (** name of the index that [acc_probe] would use for this column,
          if any; informational (EXPLAIN) only *)
  acc_count : table:string -> int option;
      (** current cardinality of a base table, without materializing
          it; [None] for an unknown table *)
  acc_stats : table:string -> column:string -> (int * bool) option;
      (** incrementally-maintained statistics for an indexed column:
          distinct non-null key count, and whether an ordered index
          (range capability) covers it; [None] for unindexed columns *)
}

val join_optimization : bool ref
(** When true (the default), an equality conjunct in the WHERE clause
    linking two from-list sources turns the nested-loop join into an
    order-preserving hash join.  Results are identical; the switch
    exists for the ablation benchmark. *)

val predicate_pushdown : bool ref
(** When true (the default) and access hooks are installed, sargable
    conjuncts are pushed down into index probes.  Results are
    identical; the switch exists for the differential test harness and
    the ablation benchmark. *)

val cost_model : bool ref
(** When true (the default), the planner ranks all sargable candidates
    — equality/IN, range comparisons, BETWEEN, prefix LIKE — by
    estimated enumerated rows from the maintained statistics and takes
    the cheapest.  When false it degrades to the historical
    first-equality-match planner (no range probes), which the
    differential tests exercise next to the cost model.
    Results are identical either way. *)

(** {2 Cost model} *)

type probe_shape = Shape_eq of int option | Shape_range | Shape_prefix
(** The statically-known shape of a sargable conjunct: an equality/IN
    probe with the given key count ([None] = IN (select ...)), a range,
    or a LIKE prefix range. *)

val estimate_shape :
  access -> table:string -> column:string -> probe_shape -> int option
(** Estimated rows a probe of this shape would enumerate, from the
    maintained statistics ([None] = no usable index).  Ranges are
    guessed at selectivity 1/3 (prefixes 1/4); equality estimates are
    keys × rows ∕ distinct. *)

val choose_candidates :
  access -> table:string -> ('a * string * probe_shape) list ->
  ('a * int option) list
(** The single decision procedure shared by execution and EXPLAIN:
    given [(payload, column, shape)] candidates
    in conjunct order, the ones worth attempting, cheapest first, each
    with its estimate.  With {!cost_model} off: equality candidates in
    conjunct order, no estimates (the historical planner). *)

type probe_hit = {
  ph_column : string;  (** indexed column satisfying the probe *)
  ph_conjunct : Ast.expr;  (** the WHERE conjunct pushed down *)
  ph_kind : [ `Eq | `Range ];
  ph_est : int option;  (** cost-model estimate; [None] = legacy planner *)
  ph_pairs : (Handle.t * Row.t) list;  (** rows the probe enumerates *)
}
(** A successful probe decision, as produced by the compiled probe
    planner and consumed by the DML layer and EXPLAIN. *)

(** {2 Sargability analysis} *)

val conjuncts : Ast.expr -> Ast.expr list
(** Top-level AND conjuncts of a predicate. *)

val independence :
  target:(string * string array) list ->
  cols_of:(string -> string array option) ->
  (Ast.expr -> bool) * (Ast.select -> bool)
(** The conservative may-it-reference-the-target-frame test used by the
    access-path planner; see the implementation comment. *)

(** {2 EXPLAIN plan nodes}

    Plans cover the top-level FROM sources of each select core and the
    victim table of DELETE/UPDATE; tables touched only inside
    predicate subqueries are not enumerated. *)

type access_path =
  | Seq_scan of { table : string; rows : int option }
      (** full scan; [rows] is the table's current cardinality *)
  | Index_probe of {
      table : string;
      index : string option;  (** probing index's name, when known *)
      column : string;  (** the indexed column *)
      conjunct : string;  (** rendered sargable conjunct *)
      est : int option;  (** cost-model estimated rows; [None] = legacy *)
      matches : int;  (** handles the probe returned *)
      rows : int option;  (** table cardinality, for selectivity *)
    }
  | Range_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int option;
      matches : int;
      rows : int option;
    }  (** like [Index_probe] but over an ordered index's key range *)
  | Materialized of { source : string; rows : int }
      (** eagerly realized source: derived table, transition table, or
          a table the access hooks don't cover *)

type join_plan = { jp_with : string; jp_conjunct : string }
(** The source is hash-joined to earlier binding [jp_with] on the
    rendered equi-join conjunct [jp_conjunct] (one build per
    execution, one probe per partial row). *)

type source_plan = {
  sp_binding : string;
  sp_path : access_path;
  sp_join : join_plan option;
}

val probed_path : access -> table:string -> probe_hit -> access_path
(** Render a probe decision as a plan node — [Index_probe] or
    [Range_probe] by the hit's kind, with the probing index's name, the
    table cardinality and the cost-model estimate. *)

val describe_access_path : access_path -> string
val describe_source_plan : source_plan -> string
(** One-line rendering, e.g.
    ["emp: index probe of emp via emp_no_ix on emp_no, conjunct (emp_no = 2): 1 of 3 rows"]. *)
