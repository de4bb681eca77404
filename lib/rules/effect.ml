(* Transition effects (paper Section 2.2).

   The effect of a transition is the triple [I, D, U]: handles of
   inserted tuples, handles of deleted tuples, and (handle, column)
   pairs of updated tuples.  A handle appears in at most one of the
   three components.  The optional [S] component is the Section 5.1
   extension recording retrieved (handle, column) pairs.

   [compose] implements Definition 2.1:
     I = (I1 ∪ I2) − D2
     D = (D1 ∪ D2) − I1
     U = (U1 ∪ U2) − (D2 ∪ I1)   (dropping pairs by handle)
   and is associative, so the effect of an operation block is the
   composition of its operations' effects in order.

   Representation.  A handle names its table, so every component
   partitions by table; an effect is a map from table name to that
   table's share (a [part]).  Each part carries a summary of its
   updated columns, and keeps [S] column-major (column -> handles read
   through it), so a tracked select over n rows costs one handle set
   shared by its k columns rather than n column sets.  Everything the
   rules engine asks per transition — which tables, which
   (table, op, column) keys, triggering, restriction — is then
   O(touched tables), and composition rebuilds only the parts of the
   tables the newer effect touches. *)

open Relational
module Ast = Sqlf.Ast
module Dml = Sqlf.Dml
module Col_set = Set.Make (String)
module Str_map = Map.Make (String)

type part = {
  ins : Handle.Set.t;
  del : Handle.Set.t;
  upd : Col_set.t Handle.Map.t;
  upd_cols : Col_set.t; (* union of [upd]'s column sets *)
  sel : Handle.Set.t Str_map.t; (* column -> handles read; never empty sets *)
}

(* No empty parts: equality and [is_empty] stay structural. *)
type t = part Str_map.t

let empty_part =
  {
    ins = Handle.Set.empty;
    del = Handle.Set.empty;
    upd = Handle.Map.empty;
    upd_cols = Col_set.empty;
    sel = Str_map.empty;
  }

let part_is_empty p =
  Handle.Set.is_empty p.ins && Handle.Set.is_empty p.del
  && Handle.Map.is_empty p.upd && Str_map.is_empty p.sel

(* Handles read through any column.  The columns of one select share a
   single set, so the common case is no union at all. *)
let sel_handles sel =
  Str_map.fold
    (fun _ hs acc -> if hs == acc then acc else Handle.Set.union hs acc)
    sel Handle.Set.empty

let upd_summary upd =
  Handle.Map.fold (fun _ cols acc -> Col_set.union cols acc) upd Col_set.empty

let empty = Str_map.empty
let is_empty = Str_map.is_empty
let fold_parts = Str_map.fold
let find_part e table = Str_map.find_opt table e
let of_parts parts = parts
let touches e table = Str_map.mem table e

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)

(* Group items by the table of their handle, keeping each group in
   input order; one operation's items all share a table. *)
let by_table handle_of items =
  match items with
  | [] -> Str_map.empty
  | x :: rest ->
    let table = Handle.table (handle_of x) in
    let same y = String.equal (Handle.table (handle_of y)) table in
    if List.for_all same rest then Str_map.singleton table items
    else
      List.fold_left
        (fun m x ->
          Str_map.update (Handle.table (handle_of x))
            (function None -> Some [ x ] | Some l -> Some (x :: l))
            m)
        Str_map.empty (List.rev items)

let of_handles with_set handles =
  Str_map.map
    (fun hs -> with_set (Handle.Set.of_list hs))
    (by_table Fun.id handles)

let of_inserted handles =
  of_handles (fun ins -> { empty_part with ins }) handles

let of_deleted handles =
  of_handles (fun del -> { empty_part with del }) handles

let of_updated pairs =
  Str_map.map
    (fun pairs ->
      let upd =
        List.fold_left
          (fun m (h, cols) ->
            let cols = Col_set.of_list cols in
            Handle.Map.update h
              (function None -> Some cols | Some c -> Some (Col_set.union c cols))
              m)
          Handle.Map.empty pairs
      in
      { empty_part with upd; upd_cols = upd_summary upd })
    (by_table fst pairs)

let union_handles a b = if a == b then a else Handle.Set.union a b

(* Runs of pairs sharing one column list (every pair of one read set)
   contribute a single handle set to each of those columns. *)
let of_selected pairs =
  let add_run sel hs cols =
    let hs = Handle.Set.of_list hs in
    List.fold_left
      (fun sel c ->
        Str_map.update c
          (function None -> Some hs | Some s -> Some (union_handles s hs))
          sel)
      sel cols
  in
  Str_map.filter_map
    (fun _ pairs ->
      let sel, run =
        List.fold_left
          (fun (sel, run) (h, cols) ->
            match run with
            | Some (c, hs) when c == cols -> (sel, Some (c, h :: hs))
            | Some (c, hs) -> (add_run sel hs c, Some (cols, [ h ]))
            | None -> (sel, Some (cols, [ h ])))
          (Str_map.empty, None) pairs
      in
      let sel =
        match run with Some (c, hs) -> add_run sel hs c | None -> sel
      in
      if Str_map.is_empty sel then None
      else Some { empty_part with sel })
    (by_table fst pairs)

let of_affected = function
  | Dml.A_insert hs -> of_inserted hs
  | Dml.A_delete pairs -> of_deleted (List.map fst pairs)
  | Dml.A_update triples ->
    of_updated (List.map (fun (h, cols, _) -> (h, cols)) triples)
  | Dml.A_select pairs -> of_selected pairs

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)

(* Per-column maps whose columns usually share one set: memoize the
   last set operation so shared inputs give shared outputs. *)
let memo2 f =
  let last = ref None in
  fun a b ->
    match !last with
    | Some (a', b', r) when a' == a && b' == b -> r
    | _ ->
      let r = f a b in
      last := Some (a, b, r);
      r

let union_sel s1 s2 =
  if Str_map.is_empty s1 then s2
  else if Str_map.is_empty s2 then s1
  else
    let u = memo2 union_handles in
    Str_map.union (fun _ a b -> Some (u a b)) s1 s2

(* Drop the handles in [drop] from every column; columns left empty
   disappear. *)
let prune_sel drop sel =
  if Handle.Set.is_empty drop || Str_map.is_empty sel then sel
  else
    let d = memo2 Handle.Set.diff in
    Str_map.filter_map
      (fun _ hs ->
        let hs = d hs drop in
        if Handle.Set.is_empty hs then None else Some hs)
      sel

let remove_keys drop m =
  if Handle.Set.is_empty drop || Handle.Map.is_empty m then m
  else Handle.Map.filter (fun h _ -> not (Handle.Set.mem h drop)) m

(* Definition 2.1 on one table's share.  The S component composes by
   union minus handles deleted by the second transition or inserted by
   the first (selected tuples that no longer exist, or that did not
   exist before the composite transition, are not reported) — one of
   the compositions the paper leaves open; see DESIGN.md. *)
let compose_shares p1 p2 =
  if p1 == empty_part && Handle.Set.is_empty p2.del then p2
  else
    let ins = Handle.Set.diff (Handle.Set.union p1.ins p2.ins) p2.del in
    let del = Handle.Set.diff (Handle.Set.union p1.del p2.del) p1.ins in
    let drop = Handle.Set.union p2.del p1.ins in
    let upd0 =
      Handle.Map.union (fun _ a b -> Some (Col_set.union a b)) p1.upd p2.upd
    in
    let upd = remove_keys drop upd0 in
    let upd_cols =
      if upd == upd0 then Col_set.union p1.upd_cols p2.upd_cols
      else upd_summary upd
    in
    let sel = prune_sel drop (union_sel p1.sel p2.sel) in
    { ins; del; upd; upd_cols; sel }

let compose_part p1 p2 =
  let p = compose_shares (Option.value p1 ~default:empty_part) p2 in
  if part_is_empty p then None else Some p

(* Tables the newer effect does not touch keep their part as is: on
   effects of valid histories (a handle is fresh when inserted and
   untouched once deleted) the flat formula leaves them unchanged. *)
let compose e1 e2 =
  Str_map.fold
    (fun table p2 acc ->
      match compose_part (Str_map.find_opt table e1) p2 with
      | Some p -> Str_map.add table p acc
      | None -> Str_map.remove table acc)
    e2 e1

let of_affected_list affs =
  List.fold_left (fun acc a -> compose acc (of_affected a)) empty affs

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* Triggering test for a basic transition predicate (Section 3), on
   the part of the predicate's table. *)
let part_satisfies p (pred : Ast.basic_trans_pred) =
  match pred with
  | Ast.Tp_inserted _ -> not (Handle.Set.is_empty p.ins)
  | Ast.Tp_deleted _ -> not (Handle.Set.is_empty p.del)
  | Ast.Tp_updated (_, None) -> not (Handle.Map.is_empty p.upd)
  | Ast.Tp_updated (_, Some c) -> Col_set.mem c p.upd_cols
  | Ast.Tp_selected (_, None) -> not (Str_map.is_empty p.sel)
  | Ast.Tp_selected (_, Some c) -> Str_map.mem c p.sel

let satisfies_pred e (pred : Ast.basic_trans_pred) =
  match Str_map.find_opt (Ast.trans_pred_table pred) e with
  | None -> false
  | Some p -> part_satisfies p pred

(* A rule's transition predicate is the disjunction of its basic
   predicates. *)
let satisfies_any e preds = List.exists (satisfies_pred e) preds

(* Restrict an effect to the tables satisfying [keep]: the basis of the
   Section 4.3 optimization that saves, per rule, "only the subset of
   that information relevant to the particular rule". *)
let restrict e keep = Str_map.filter (fun table _ -> keep table) e

(* Every basic transition predicate the effect satisfies, read off the
   parts and their column summaries: the table-level forms, and the
   column forms for each updated or selected column. *)
let fold_satisfied f e acc =
  Str_map.fold
    (fun table p acc ->
      let acc = if Handle.Set.is_empty p.ins then acc else f (Ast.Tp_inserted table) acc in
      let acc = if Handle.Set.is_empty p.del then acc else f (Ast.Tp_deleted table) acc in
      let acc =
        if Handle.Map.is_empty p.upd then acc
        else
          Col_set.fold
            (fun c acc -> f (Ast.Tp_updated (table, Some c)) acc)
            p.upd_cols
            (f (Ast.Tp_updated (table, None)) acc)
      in
      if Str_map.is_empty p.sel then acc
      else
        Str_map.fold
          (fun c _ acc -> f (Ast.Tp_selected (table, Some c)) acc)
          p.sel
          (f (Ast.Tp_selected (table, None)) acc))
    e acc

(* The handles a transition table over the part's table ranges over,
   in handle order. *)
let trans_handles p (tt : Ast.trans_table) =
  match tt with
  | Ast.Tt_inserted _ -> Handle.Set.elements p.ins
  | Ast.Tt_deleted _ -> Handle.Set.elements p.del
  | Ast.Tt_old_updated (_, None) | Ast.Tt_new_updated (_, None) ->
    List.map fst (Handle.Map.bindings p.upd)
  | Ast.Tt_old_updated (_, Some c) | Ast.Tt_new_updated (_, Some c) ->
    Handle.Map.fold
      (fun h cols acc -> if Col_set.mem c cols then h :: acc else acc)
      p.upd []
    |> List.rev
  | Ast.Tt_selected (_, None) -> Handle.Set.elements (sel_handles p.sel)
  | Ast.Tt_selected (_, Some c) -> (
    match Str_map.find_opt c p.sel with
    | Some hs -> Handle.Set.elements hs
    | None -> [])

(* Deleted or updated tuples: those whose earlier value a transition
   table or a later transition may ask for. *)
let fold_changed f p acc =
  Handle.Map.fold (fun h _ acc -> f h acc) p.upd (Handle.Set.fold f p.del acc)

let changed p h = Handle.Set.mem h p.del || Handle.Map.mem h p.upd

(* The set of tables an effect touches. *)
let tables e = Str_map.fold (fun table _ acc -> Col_set.add table acc) e Col_set.empty

(* Tables whose tuples the effect reached through a predicate or a
   tracked select ([D], [U] or [S] non-empty), and tables it wrote
   ([I], [D] or [U] non-empty). *)
let tables_where keep e =
  Str_map.fold
    (fun table p acc -> if keep p then Col_set.add table acc else acc)
    e Col_set.empty

let read_tables e =
  tables_where
    (fun p ->
      not
        (Handle.Set.is_empty p.del && Handle.Map.is_empty p.upd
       && Str_map.is_empty p.sel))
    e

let written_tables e =
  tables_where
    (fun p ->
      not
        (Handle.Set.is_empty p.ins && Handle.Set.is_empty p.del
       && Handle.Map.is_empty p.upd))
    e

let written_handles e =
  Str_map.fold
    (fun _ p acc -> fold_changed Handle.Set.add p acc)
    e Handle.Set.empty

(* The invariant of Section 2.2 — a handle appears in at most one of
   I, D, U — plus the representation's own: every handle of a part
   belongs to its table, and the column summary is exact.  Exposed for
   property-based tests. *)
let well_formed e =
  Str_map.for_all
    (fun table p ->
      let own h = String.equal (Handle.table h) table in
      Handle.Set.is_empty (Handle.Set.inter p.ins p.del)
      && Handle.Map.for_all
           (fun h _ ->
             own h && (not (Handle.Set.mem h p.ins)) && not (Handle.Set.mem h p.del))
           p.upd
      && Handle.Set.for_all own p.ins
      && Handle.Set.for_all own p.del
      && Str_map.for_all
           (fun _ hs -> (not (Handle.Set.is_empty hs)) && Handle.Set.for_all own hs)
           p.sel
      && Col_set.equal p.upd_cols (upd_summary p.upd)
      && not (part_is_empty p))
    e

let part_equal a b =
  a == b
  || Handle.Set.equal a.ins b.ins
     && Handle.Set.equal a.del b.del
     && Handle.Map.equal Col_set.equal a.upd b.upd
     && Str_map.equal Handle.Set.equal a.sel b.sel

let equal a b = Str_map.equal part_equal a b

(* Tuples the effect touches, across all four components: with select
   tracking on (Section 5.1) the S component counts too, so trace
   [effect_size]s and statistics reflect retrievals as well as
   writes. *)
let part_size p =
  Handle.Set.cardinal p.ins + Handle.Set.cardinal p.del
  + Handle.Map.cardinal p.upd
  + Handle.Set.cardinal (sel_handles p.sel)

let cardinality e = Str_map.fold (fun _ p acc -> acc + part_size p) e 0

(* ------------------------------------------------------------------ *)
(* Flat views                                                          *)

let ins e = Str_map.fold (fun _ p acc -> Handle.Set.union p.ins acc) e Handle.Set.empty
let del e = Str_map.fold (fun _ p acc -> Handle.Set.union p.del acc) e Handle.Set.empty

let upd e =
  Str_map.fold
    (fun _ p acc -> Handle.Map.union (fun _ a _ -> Some a) p.upd acc)
    e Handle.Map.empty

let sel e =
  Str_map.fold
    (fun _ p acc ->
      Str_map.fold
        (fun c hs acc ->
          Handle.Set.fold
            (fun h acc ->
              Handle.Map.update h
                (function
                  | None -> Some (Col_set.singleton c)
                  | Some cols -> Some (Col_set.add c cols))
                acc)
            hs acc)
        p.sel acc)
    e Handle.Map.empty

let pp ppf e =
  let pp_handles ppf s =
    Fmt.list ~sep:Fmt.comma Handle.pp ppf (Handle.Set.elements s)
  in
  let pp_cols ppf m =
    Fmt.list ~sep:Fmt.comma
      (fun ppf (h, cols) ->
        Fmt.pf ppf "%a{%s}" Handle.pp h
          (String.concat "," (Col_set.elements cols)))
      ppf (Handle.Map.bindings m)
  in
  Fmt.pf ppf "[I={%a}; D={%a}; U={%a}]" pp_handles (ins e) pp_handles (del e)
    pp_cols (upd e)
