(* Per-rule composite transition information (paper Section 4.3,
   Figure 1).

   Each rule carries, between transitions, the information needed to
   decide whether it is triggered and to build its transition tables:
   the composite effect since the rule's reference point (inserted,
   deleted, updated and selected tuples, netted per Definition 2.1),
   plus the value at the reference point of every deleted or updated
   tuple — the deleted tuples are gone from the database, and an
   updated tuple's current value is not its old one.  Figure 1 keeps
   one (h, c, v) triple per updated column with all v equal; we store
   the columns in the effect and the single old row here.

   The information is partitioned by table like [Effect.t]: each part
   holds the table's [Effect.part] and its old rows, so triggering,
   the column summaries and the composition of I, D, U and S are
   Effect's own; restriction costs O(touched tables), and [extend]
   rebuilds only the parts of the tables the new effect touches.

   [init] corresponds to Figure 1's init-trans-info, [extend] to
   modify-trans-info, and get-old-value to [old_row]. *)

open Relational
module Col_set = Effect.Col_set
module Str_map = Effect.Str_map

type upd_entry = { upd_cols : Col_set.t; old_row : Row.t }

type part = {
  eff : Effect.part;
  old : Row.t Handle.Map.t;
      (* the reference-point value of each deleted or updated tuple *)
}

type t = part Str_map.t

let empty = Str_map.empty
let is_empty = Str_map.is_empty

let old_row ti h = Handle.Map.find h (Str_map.find (Handle.table h) ti).old

(* One tuple instance: the unit-granularity transition of a row
   trigger. *)
let of_tuple e h old =
  match Effect.find_part e (Handle.table h) with
  | Some eff -> Str_map.singleton (Handle.table h) { eff; old }
  | None -> empty

let inserted h = of_tuple (Effect.of_inserted [ h ]) h Handle.Map.empty
let deleted h row = of_tuple (Effect.of_deleted [ h ]) h (Handle.Map.singleton h row)

let updated h cols row =
  of_tuple
    (Effect.of_updated [ (h, Col_set.elements cols) ])
    h (Handle.Map.singleton h row)

(* Record the value in [old_db] of each tuple the effect part [ep]
   deleted or updated that [eff] still reports as deleted or updated
   and that has no recorded value yet: a tuple's first recorded value
   is its value at the reference point. *)
let record_old eff ep old_db old =
  Effect.fold_changed
    (fun h old ->
      if Handle.Map.mem h old || not (Effect.changed eff h) then old
      else Handle.Map.add h (Database.get_row old_db h) old)
    ep old

(* init-trans-info: transition information for a single effect [e]
   produced by a transition from [old_db]. *)
let init (e : Effect.t) old_db =
  Effect.fold_parts
    (fun table eff acc ->
      let old =
        Effect.fold_changed
          (fun h old -> Handle.Map.add h (Database.get_row old_db h) old)
          eff Handle.Map.empty
      in
      Str_map.add table { eff; old } acc)
    e empty

(* modify-trans-info on one table: compose in the table's share of a
   subsequent transition's effect, from state [old_db] (the state
   preceding that transition). *)
let extend_part p ep old_db =
  match Effect.compose_part (Option.map (fun p -> p.eff) p) ep with
  | None -> None
  | Some eff ->
    let old = match p with Some p -> p.old | None -> Handle.Map.empty in
    Some { eff; old = record_old eff ep old_db old }

(* modify-trans-info: extend composite information with the effect of
   a subsequent transition from state [old_db].  With [~reuse:(before,
   after)], where [after] is [extend before e old_db], a part of [ti]
   that is physically [before]'s part of the same table extends to
   [after]'s part without being recomputed: [extend_part] is a pure
   function of its inputs. *)
let extend ?reuse ti (e : Effect.t) old_db =
  Effect.fold_parts
    (fun table ep acc ->
      let p = Str_map.find_opt table ti in
      let shared =
        match reuse with
        | None -> None
        | Some (before, after) -> (
          match (p, Str_map.find_opt table before) with
          | Some a, Some b when a == b -> Some (Str_map.find_opt table after)
          | None, None -> Some (Str_map.find_opt table after)
          | _ -> None)
      in
      let p' =
        match shared with Some p' -> p' | None -> extend_part p ep old_db
      in
      match p' with
      | Some p' -> Str_map.add table p' acc
      | None -> Str_map.remove table acc)
    e ti

(* Restriction to the tables satisfying [keep].  Every component keys
   on handles, and a handle belongs to exactly one table, so
   restriction commutes with [init]/[extend]: restricting a composite
   equals composing restricted effects.  The engine uses this to give
   each woken rule the pruned information the linear scan would have
   accumulated for it. *)
let restrict ti keep = Str_map.filter (fun table _ -> keep table) ti

(* The effect this information represents. *)
let to_effect ti = Effect.of_parts (Str_map.map (fun p -> p.eff) ti)

let triggered ti preds =
  List.exists
    (fun pred ->
      match Str_map.find_opt (Sqlf.Ast.trans_pred_table pred) ti with
      | None -> false
      | Some p -> Effect.part_satisfies p.eff pred)
    preds

let handles ti (tt : Sqlf.Ast.trans_table) =
  match Str_map.find_opt (Sqlf.Ast.trans_table_base tt) ti with
  | None -> []
  | Some p -> Effect.trans_handles p.eff tt

(* Flat views. *)
let ins ti = Effect.ins (to_effect ti)

let del ti =
  Handle.Set.fold
    (fun h m -> Handle.Map.add h (old_row ti h) m)
    (Effect.del (to_effect ti)) Handle.Map.empty

let upd ti =
  Handle.Map.mapi
    (fun h upd_cols -> { upd_cols; old_row = old_row ti h })
    (Effect.upd (to_effect ti))

let sel ti = Effect.sel (to_effect ti)
let pp ppf ti = Effect.pp ppf (to_effect ti)
