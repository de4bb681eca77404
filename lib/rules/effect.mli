(** Transition effects (paper Section 2.2).

    The effect of a transition is the triple [I, D, U]: handles of
    inserted tuples, handles of deleted tuples, and (handle, column)
    pairs of updated tuples.  A handle appears in at most one of the
    three components.  The optional [S] component is the Section 5.1
    extension recording retrieved (handle, column) pairs.

    {!compose} implements Definition 2.1:
    {v
      I = (I1 ∪ I2) − D2
      D = (D1 ∪ D2) − I1
      U = (U1 ∪ U2) − (D2 ∪ I1)    (dropping pairs by handle)
    v}
    and is associative, so the effect of an operation block is the
    composition of its operations' effects in order.

    An effect is partitioned by table: a map from table name to the
    table's {!part}, holding its share of every component and a summary
    of its updated and selected columns.  Table-level questions
    ({!tables}, {!restrict}, {!satisfies_pred}) cost O(touched
    tables), and {!compose} rebuilds only the parts of the tables the
    newer effect touches. *)

open Relational
module Ast = Sqlf.Ast
module Dml = Sqlf.Dml
module Col_set : Set.S with type elt = string
module Str_map : Map.S with type key = string

type part
(** One table's share of an effect: its [I], [D], [U] and [S] plus a
    summary of its updated columns.  Never empty inside an effect. *)

type t

val empty : t
val is_empty : t -> bool

val touches : t -> string -> bool
(** Whether the effect mentions any tuple of the table. *)

(** {2 Parts}

    Per-table access for composite information built over effects
    ({!Trans_info}). *)

val find_part : t -> string -> part option

val fold_parts : (string -> part -> 'a -> 'a) -> t -> 'a -> 'a
(** Over touched tables, in table-name order. *)

val of_parts : part Str_map.t -> t
(** The effect whose parts these are (each keyed by its table). *)

val compose_part : part option -> part -> part option
(** {!compose} on one table's shares: [None] for an absent share on
    the left, and for an empty result. *)

val part_satisfies : part -> Ast.basic_trans_pred -> bool
(** {!satisfies_pred} for a predicate over the part's table. *)

val trans_handles : part -> Ast.trans_table -> Handle.t list
(** The handles a transition table over the part's table ranges over
    ([I]; [D]; [U], of the column if given; [S], of the column if
    given), in handle order. *)

val fold_changed : (Handle.t -> 'a -> 'a) -> part -> 'a -> 'a
(** Over the deleted and the updated handles. *)

val changed : part -> Handle.t -> bool
(** Whether the handle is deleted or updated. *)

val of_inserted : Handle.t list -> t
val of_deleted : Handle.t list -> t
val of_updated : (Handle.t * string list) list -> t

val of_selected : (Handle.t * string list) list -> t
(** A handle paired with no columns records nothing. *)

val of_affected : Dml.affected -> t
(** The effect of a single operation, from its affected set
    (Section 2.1). *)

val of_affected_list : Dml.affected list -> t
(** Left-to-right composition of single-operation effects. *)

val compose : t -> t -> t
(** Definition 2.1.  The [S] component composes by union minus handles
    deleted by the second transition or inserted by the first — one of
    the compositions the paper leaves open; see DESIGN.md.  Parts of
    tables the second effect does not touch are shared unchanged, which
    agrees with the flat formula on effects of valid histories (a
    handle is fresh when inserted and untouched once deleted) — the
    only effects transitions produce. *)

val tables : t -> Col_set.t
(** The tables the effect touches. *)

val read_tables : t -> Col_set.t
(** Tables whose tuples the effect reached through a predicate or a
    tracked select: [D], [U] or [S] non-empty. *)

val written_tables : t -> Col_set.t
(** Tables the effect wrote: [I], [D] or [U] non-empty. *)

val written_handles : t -> Handle.Set.t
(** Deleted and updated handles. *)

val fold_satisfied : (Ast.basic_trans_pred -> 'a -> 'a) -> t -> 'a -> 'a
(** Over every basic transition predicate the effect satisfies: for
    each touched table the table-level forms, and the column forms of
    each updated or selected column.  Costs O(touched tables and
    columns). *)

val restrict : t -> (string -> bool) -> t
(** [restrict e keep] keeps the parts of the tables satisfying [keep]:
    the Section 4.3 optimization of saving, per rule, only the
    information relevant to it. *)

val satisfies_pred : t -> Ast.basic_trans_pred -> bool
(** Triggering test for one basic transition predicate (Section 3). *)

val satisfies_any : t -> Ast.basic_trans_pred list -> bool
(** A rule's transition predicate is the disjunction of its basic
    predicates; false for the empty list. *)

val well_formed : t -> bool
(** The Section 2.2 invariant — a handle appears in at most one of
    [I], [D], [U] — and the representation's: every handle of a part
    belongs to its table, no part or column set is empty, and the
    column summaries are exact.  Exposed for property-based tests. *)

val equal : t -> t -> bool

val cardinality : t -> int
(** Number of tuples mentioned in [I], [D], [U] and — when select
    tracking is on — [S], so sizes reported in traces and statistics
    count retrievals as well as writes. *)

(** {2 Flat views}

    The components across all tables, as in the unpartitioned
    definition; O(size of the effect).  For logging, tests and
    reference models. *)

val ins : t -> Handle.Set.t
val del : t -> Handle.Set.t
val upd : t -> Col_set.t Handle.Map.t
val sel : t -> Col_set.t Handle.Map.t

val pp : Format.formatter -> t -> unit
