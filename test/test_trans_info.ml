(* Tests for per-rule composite transition information (Figure 1's
   init-trans-info / modify-trans-info), exercised directly against
   database states. *)

open Core
open Helpers

let db_with_t () =
  Database.create_table Database.empty
    (Schema.table "t"
       [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ])

let test_init_insert () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  ignore db1;
  let ti = Trans_info.init (Effect.of_inserted [ h ]) db0 in
  Alcotest.(check bool) "ins" true (Handle.Set.mem h (Trans_info.ins ti));
  Alcotest.(check bool) "triggered" true
    (Trans_info.triggered ti [ Ast.Tp_inserted "t" ]);
  Alcotest.(check bool) "not deleted" false
    (Trans_info.triggered ti [ Ast.Tp_deleted "t" ])

let test_init_delete_captures_values () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let db2 = Database.delete db1 h in
  ignore db2;
  (* old state is db1, where the tuple still exists *)
  let ti = Trans_info.init (Effect.of_deleted [ h ]) db1 in
  Alcotest.check row_testable "value captured" [| vi 1; vs "x" |]
    (Handle.Map.find h (Trans_info.del ti))

let test_init_update_captures_old () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let db2 = Database.update db1 h [| vi 2; vs "x" |] in
  ignore db2;
  let ti = Trans_info.init (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  let entry = Handle.Map.find h (Trans_info.upd ti) in
  Alcotest.check row_testable "old row" [| vi 1; vs "x" |] entry.Trans_info.old_row;
  Alcotest.(check bool) "col" true
    (Effect.Col_set.mem "a" entry.Trans_info.upd_cols)

(* insert in transition 1, delete in transition 2: the composite info
   is empty — the rule sees nothing. *)
let test_extend_insert_then_delete () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let ti = Trans_info.init (Effect.of_inserted [ h ]) db0 in
  let db2 = Database.delete db1 h in
  ignore db2;
  let ti = Trans_info.extend ti (Effect.of_deleted [ h ]) db1 in
  Alcotest.(check bool) "empty" true (Trans_info.is_empty ti)

(* update in two consecutive transitions: old value is from the start
   of the composite, and columns accumulate. *)
let test_extend_update_keeps_first_old () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  (* transition A: update a to 2 *)
  let db2 = Database.update db1 h [| vi 2; vs "x" |] in
  let ti = Trans_info.init (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  (* transition B: update b *)
  let db3 = Database.update db2 h [| vi 2; vs "y" |] in
  ignore db3;
  let ti = Trans_info.extend ti (Effect.of_updated [ (h, [ "b" ]) ]) db2 in
  let entry = Handle.Map.find h (Trans_info.upd ti) in
  (* the old row is the pre-composite value (a=1, b=x), not db2's *)
  Alcotest.check row_testable "first old kept" [| vi 1; vs "x" |]
    entry.Trans_info.old_row;
  Alcotest.(check int) "both columns" 2
    (Effect.Col_set.cardinal entry.Trans_info.upd_cols)

(* update then delete across transitions: net delete, with the
   pre-composite value. *)
let test_extend_update_then_delete () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let db2 = Database.update db1 h [| vi 99; vs "x" |] in
  let ti = Trans_info.init (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  let db3 = Database.delete db2 h in
  ignore db3;
  let ti = Trans_info.extend ti (Effect.of_deleted [ h ]) db2 in
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (Trans_info.upd ti));
  (* deleted value is the value at the start of the composite (a=1) *)
  Alcotest.check row_testable "pre-composite value" [| vi 1; vs "x" |]
    (Handle.Map.find h (Trans_info.del ti))

(* insert then update across transitions nets to insert. *)
let test_extend_insert_then_update () =
  let db0 = db_with_t () in
  let db1, h = Database.insert db0 "t" [| vi 1; vs "x" |] in
  let ti = Trans_info.init (Effect.of_inserted [ h ]) db0 in
  let db2 = Database.update db1 h [| vi 5; vs "x" |] in
  ignore db2;
  let ti = Trans_info.extend ti (Effect.of_updated [ (h, [ "a" ]) ]) db1 in
  Alcotest.(check bool) "still inserted" true (Handle.Set.mem h (Trans_info.ins ti));
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (Trans_info.upd ti));
  Alcotest.(check bool) "triggers insert only" true
    (Trans_info.triggered ti [ Ast.Tp_inserted "t" ]
    && not (Trans_info.triggered ti [ Ast.Tp_updated ("t", None) ]))

(* property: over random valid histories, the effect represented by
   fold-extended trans-info equals the fold-composed effect. *)
let prop_extend_agrees_with_compose =
  let gen st =
    (* build a real database history for table t *)
    let db0 = db_with_t () in
    let open QCheck.Gen in
    let n = int_range 1 15 st in
    let rec go db live steps acc =
      if steps = 0 then List.rev acc
      else
        let choice = int_bound 2 st in
        if choice = 0 || live = [] then begin
          let db', h = Database.insert db "t" [| vi (int_bound 100 st); vs "v" |] in
          go db' (h :: live) (steps - 1) ((db, Effect.of_inserted [ h ]) :: acc)
        end
        else if choice = 1 then begin
          let i = int_bound (List.length live - 1) st in
          let h = List.nth live i in
          let live' = List.filteri (fun j _ -> j <> i) live in
          let db' = Database.delete db h in
          go db' live' (steps - 1) ((db, Effect.of_deleted [ h ]) :: acc)
        end
        else begin
          let i = int_bound (List.length live - 1) st in
          let h = List.nth live i in
          let col = if bool st then "a" else "b" in
          let row = Database.get_row db h in
          let row' =
            if col = "a" then [| vi (int_bound 100 st); row.(1) |]
            else [| row.(0); vs "w" |]
          in
          let db' = Database.update db h row' in
          go db' live (steps - 1) ((db, Effect.of_updated [ (h, [ col ]) ]) :: acc)
        end
    in
    go db0 [] n []
  in
  let arb = QCheck.make ~print:(fun l -> Printf.sprintf "<%d transitions>" (List.length l)) gen in
  QCheck.Test.make ~name:"trans-info effect = composed effect over histories"
    ~count:200 arb (fun history ->
      match history with
      | [] -> true
      | (db0, e0) :: rest ->
        let ti =
          List.fold_left
            (fun ti (db_before, e) -> Trans_info.extend ti e db_before)
            (Trans_info.init e0 db0) rest
        in
        let composed =
          List.fold_left
            (fun acc (_, e) -> Effect.compose acc e)
            e0 rest
        in
        Effect.equal (Trans_info.to_effect ti) composed)

(* ------------------------------------------------------------------ *)
(* The flat reference model of Figure 1's init/modify-trans-info: the
   unpartitioned representation, operating on the flat effect model of
   test_effect.ml.  The partitioned [Trans_info] must agree with it
   step by step over real two-table database histories with selects,
   and restriction must commute with init/extend — including when the
   extension is reused from a shared composite.                       *)

module Flat = Test_effect.Flat
module C = Effect.Col_set

module Flat_info = struct
  type t = {
    ins : Handle.Set.t;
    del : Row.t Handle.Map.t;
    upd : Trans_info.upd_entry Handle.Map.t;
    sel : C.t Handle.Map.t;
  }

  let old_row_of ti db h =
    match Handle.Map.find_opt h ti.upd with
    | Some e -> e.Trans_info.old_row
    | None -> Database.get_row db h

  let init (e : Flat.t) db =
    {
      ins = e.Flat.ins;
      del = Handle.Set.fold (fun h m -> Handle.Map.add h (Database.get_row db h) m) e.Flat.del Handle.Map.empty;
      upd =
        Handle.Map.mapi (fun h cols -> { Trans_info.upd_cols = cols; old_row = Database.get_row db h }) e.Flat.upd;
      sel = e.Flat.sel;
    }

  let extend ti (e : Flat.t) db =
    let ins = Handle.Set.union ti.ins e.Flat.ins in
    let ins, del, upd =
      Handle.Set.fold
        (fun h (ins, del, upd) ->
          if Handle.Set.mem h ins then (Handle.Set.remove h ins, del, upd)
          else (ins, Handle.Map.add h (old_row_of ti db h) del, Handle.Map.remove h upd))
        e.Flat.del (ins, ti.del, ti.upd)
    in
    let upd =
      Handle.Map.fold
        (fun h cols upd ->
          if Handle.Set.mem h ins then upd
          else
            match Handle.Map.find_opt h upd with
            | Some entry ->
              Handle.Map.add h { entry with Trans_info.upd_cols = C.union entry.Trans_info.upd_cols cols } upd
            | None -> Handle.Map.add h { Trans_info.upd_cols = cols; old_row = Database.get_row db h } upd)
        e.Flat.upd upd
    in
    let sel =
      Handle.Map.filter
        (fun h _ -> not (Handle.Set.mem h e.Flat.del || Handle.Set.mem h ins))
        (Flat.union_cols ti.sel e.Flat.sel)
    in
    { ins; del; upd; sel }

  let to_flat_effect ti =
    {
      Flat.ins = ti.ins;
      del = Handle.Map.fold (fun h _ s -> Handle.Set.add h s) ti.del Handle.Set.empty;
      upd = Handle.Map.map (fun e -> e.Trans_info.upd_cols) ti.upd;
      sel = ti.sel;
    }

  let upd_equal a b =
    C.equal a.Trans_info.upd_cols b.Trans_info.upd_cols && Row.equal a.Trans_info.old_row b.Trans_info.old_row

  let agrees f ti =
    Handle.Set.equal f.ins (Trans_info.ins ti)
    && Handle.Map.equal Row.equal f.del (Trans_info.del ti)
    && Handle.Map.equal upd_equal f.upd (Trans_info.upd ti)
    && Handle.Map.equal C.equal f.sel (Trans_info.sel ti)
end

let info_equal a b =
  Handle.Set.equal (Trans_info.ins a) (Trans_info.ins b)
  && Handle.Map.equal Row.equal (Trans_info.del a) (Trans_info.del b)
  && Handle.Map.equal Flat_info.upd_equal (Trans_info.upd a) (Trans_info.upd b)
  && Handle.Map.equal C.equal (Trans_info.sel a) (Trans_info.sel b)

(* A real two-table history: each step is the state before it, its
   partitioned effect and its flat effect. *)
let gen_two_table_history st =
  let open QCheck.Gen in
  let schema name = Schema.table name [ Schema.column "a" Schema.T_int; Schema.column "b" Schema.T_string ] in
  let db0 = Database.create_table (Database.create_table Database.empty (schema "t")) (schema "w") in
  let pick l = List.nth l (int_bound (List.length l - 1) st) in
  let subset live = match List.filter (fun _ -> bool st) live with [] -> [ pick live ] | l -> l in
  let cols () = pick [ [ "a" ]; [ "b" ]; [ "a"; "b" ] ] in
  let rec go db live n acc =
    if n = 0 then List.rev acc
    else
      match int_bound 4 st with
      | 0 | 1 ->
        let table = if bool st then "t" else "w" in
        let db', h = Database.insert db table [| vi (int_bound 100 st); vs "v" |] in
        go db' (h :: live) (n - 1)
          ((db, Effect.of_inserted [ h ], { Flat.empty with Flat.ins = Handle.Set.singleton h }) :: acc)
      | 2 when live <> [] ->
        let victims = subset live in
        let db' = List.fold_left Database.delete db victims in
        go db' (List.filter (fun h -> not (List.memq h victims)) live) (n - 1)
          ((db, Effect.of_deleted victims, { Flat.empty with Flat.del = Handle.Set.of_list victims }) :: acc)
      | 3 when live <> [] ->
        let c = cols () in
        let victims = subset live in
        let db' =
          List.fold_left
            (fun db h ->
              let row = Database.get_row db h in
              Database.update db h
                [| (if List.mem "a" c then vi (int_bound 100 st) else row.(0));
                   (if List.mem "b" c then vs "w" else row.(1)) |])
            db victims
        in
        let pairs = List.map (fun h -> (h, c)) victims in
        go db' live (n - 1) ((db, Effect.of_updated pairs, { Flat.empty with Flat.upd = Flat.cols_of pairs }) :: acc)
      | 4 when live <> [] ->
        let pairs = List.map (fun h -> (h, cols ())) (subset live) in
        go db live (n - 1) ((db, Effect.of_selected pairs, { Flat.empty with Flat.sel = Flat.cols_of pairs }) :: acc)
      | _ -> go db live n acc
  in
  go db0 [] (int_range 1 15 st) []

let arb_two_table =
  QCheck.make ~print:(fun l -> Printf.sprintf "<%d transitions>" (List.length l)) gen_two_table_history

let preds =
  List.concat_map
    (fun t ->
      [ Ast.Tp_inserted t; Ast.Tp_deleted t; Ast.Tp_updated (t, None); Ast.Tp_updated (t, Some "a");
        Ast.Tp_updated (t, Some "b"); Ast.Tp_selected (t, None); Ast.Tp_selected (t, Some "a") ])
    [ "t"; "w" ]

let prop_agrees_with_flat_model =
  QCheck.Test.make ~name:"partitioned trans-info = flat init/extend model" ~count:200 arb_two_table
    (function
      | [] -> true
      | (db0, e0, f0) :: rest ->
        let ti, fi =
          List.fold_left
            (fun (ti, fi) (db, e, f) -> (Trans_info.extend ti e db, Flat_info.extend fi f db))
            (Trans_info.init e0 db0, Flat_info.init f0 db0)
            rest
        in
        Flat_info.agrees fi ti
        && List.for_all
             (fun p -> Trans_info.triggered ti [ p ] = Flat.satisfies (Flat_info.to_flat_effect fi) p)
             preds)

let prop_restrict_commutes =
  QCheck.Test.make ~name:"restriction commutes with init/extend (and reused extension)" ~count:200
    arb_two_table (function
    | [] -> true
    | (db0, e0, _) :: rest ->
      let keep t = String.equal t "t" in
      (* full composite, restricted composite, and a restricted copy
         that extends by reusing the full composite's parts *)
      let full, restricted, reused, ok =
        List.fold_left
          (fun (full, restricted, reused, ok) (db, e, _) ->
            let full' = Trans_info.extend full e db in
            let er = Effect.restrict e keep in
            let restricted' = Trans_info.extend restricted er db in
            let reused' = Trans_info.extend ~reuse:(full, full') reused er db in
            (full', restricted', reused', ok && info_equal reused' (Trans_info.restrict full' keep)))
          (let i = Trans_info.init e0 db0 in
           (i, Trans_info.init (Effect.restrict e0 keep) db0, Trans_info.restrict i keep, true))
          rest
      in
      (* information with a later reference point (a rule that just
         fired) shares no parts with the composite: offering reuse
         must not change its extension *)
      let late_ok =
        match rest with
        | [] -> true
        | (db1, e1, _) :: later ->
          let full1 = Trans_info.init e0 db0 in
          let _, late, plain =
            List.fold_left
              (fun (full, late, plain) (db, e, _) ->
                let full' = Trans_info.extend full e db in
                (full', Trans_info.extend ~reuse:(full, full') late e db, Trans_info.extend plain e db))
              (Trans_info.extend full1 e1 db1, Trans_info.init e1 db1, Trans_info.init e1 db1)
              later
          in
          info_equal late plain
      in
      ok && late_ok
      && info_equal restricted (Trans_info.restrict full keep)
      && info_equal reused restricted)

let suite =
  [
    Alcotest.test_case "init insert" `Quick test_init_insert;
    Alcotest.test_case "init delete captures values" `Quick
      test_init_delete_captures_values;
    Alcotest.test_case "init update captures old row" `Quick
      test_init_update_captures_old;
    Alcotest.test_case "extend: insert;delete vanishes" `Quick
      test_extend_insert_then_delete;
    Alcotest.test_case "extend: update;update keeps first old" `Quick
      test_extend_update_keeps_first_old;
    Alcotest.test_case "extend: update;delete nets delete" `Quick
      test_extend_update_then_delete;
    Alcotest.test_case "extend: insert;update stays insert" `Quick
      test_extend_insert_then_update;
    qtest prop_extend_agrees_with_compose;
    qtest prop_agrees_with_flat_model;
    qtest prop_restrict_commutes;
  ]
