(** Per-rule composite transition information (paper Section 4.3,
    Figure 1).

    Between transitions each rule carries the information needed to
    decide whether it is triggered and to build its transition tables:
    inserted handles (current values live in the database), deleted
    handles with their values, updated handles with the set of updated
    columns plus the tuple's value at the rule's reference point, and
    the Section 5.1 read set.  {!init} is Figure 1's [init-trans-info],
    {!extend} its [modify-trans-info], and {!old_row} its
    [get-old-value].

    The information is an {!Effect.t}'s parts plus the old rows, per
    table, so {!triggered} and {!restrict} cost O(touched tables). *)

open Relational
module Col_set = Effect.Col_set
module Str_map = Effect.Str_map

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }
(** An updated tuple in the flat view {!upd}. *)

type t

val empty : t
val is_empty : t -> bool

val inserted : Handle.t -> t
val deleted : Handle.t -> Row.t -> t
val updated : Handle.t -> Col_set.t -> Row.t -> t
(** Information about one tuple instance (the old row for updates):
    the unit-granularity transition of a row trigger. *)

val init : Effect.t -> Database.t -> t
(** [init e old_db]: transition information for a single effect [e]
    produced by a transition from state [old_db]. *)

val extend : ?reuse:t * t -> t -> Effect.t -> Database.t -> t
(** [extend ti e old_db]: compose in the effect of a subsequent
    transition from state [old_db], netting per Definition 2.1 and
    preserving first-recorded old values.  Only the parts of the
    tables [e] touches are rebuilt.

    [~reuse:(before, after)] must satisfy
    [after = extend before e old_db]; a part of [ti] that is physically
    [before]'s part of the same table (or absent from both) becomes
    [after]'s part without recomputation.  The engine extends one
    shared composite and lets every rule whose information is a
    restriction of it reuse the result. *)

val restrict : t -> (string -> bool) -> t
(** [restrict ti keep] keeps the parts of the tables satisfying [keep]
    (the {!Effect.restrict} counterpart).  Commutes with
    {!init}/{!extend}: restricting a composite equals composing
    restricted effects. *)

val to_effect : t -> Effect.t
(** The composite effect this information represents; [extend]
    commutes with {!Effect.compose} through this projection
    (property-tested).  O(touched tables). *)

val triggered : t -> Sqlf.Ast.basic_trans_pred list -> bool

val handles : t -> Sqlf.Ast.trans_table -> Handle.t list
(** The tuples a transition table ranges over, in handle order
    ({!Effect.trans_handles}). *)

val old_row : t -> Handle.t -> Row.t
(** Figure 1's get-old-value: the value at the start of the composite
    transition of a tuple the information reports as deleted or
    updated.  Raises [Not_found] for any other handle. *)

(** {2 Flat views}

    Components across all tables; O(size).  For tests. *)

val ins : t -> Handle.Set.t
val del : t -> Row.t Handle.Map.t
val upd : t -> upd_entry Handle.Map.t
val sel : t -> Col_set.t Handle.Map.t

val pp : Format.formatter -> t -> unit
