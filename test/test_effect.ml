(* Tests for transition effects and Definition 2.1 composition. *)

open Core
open Helpers

let h table = Handle.fresh table

let eff_testable =
  Alcotest.testable (fun ppf e -> Effect.pp ppf e) Effect.equal

let test_single_op_effects () =
  let h1 = h "t" in
  let e = Effect.of_inserted [ h1 ] in
  Alcotest.(check bool) "ins member" true (Handle.Set.mem h1 (Effect.ins e));
  Alcotest.(check bool) "well formed" true (Effect.well_formed e);
  let e = Effect.of_deleted [ h1 ] in
  Alcotest.(check bool) "del member" true (Handle.Set.mem h1 (Effect.del e));
  let e = Effect.of_updated [ (h1, [ "a"; "b" ]) ] in
  Alcotest.(check int) "upd cols" 2
    (Effect.Col_set.cardinal (Handle.Map.find h1 (Effect.upd e)))

(* The paper's netting rules, Section 2.2. *)
let test_insert_then_delete_is_nothing () =
  let h1 = h "t" in
  let e =
    Effect.compose (Effect.of_inserted [ h1 ]) (Effect.of_deleted [ h1 ])
  in
  Alcotest.(check bool) "empty" true (Effect.is_empty e)

let test_insert_then_update_is_insert () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (Effect.of_inserted [ h1 ])
      (Effect.of_updated [ (h1, [ "c" ]) ])
  in
  Alcotest.(check bool) "ins" true (Handle.Set.mem h1 (Effect.ins e));
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (Effect.upd e));
  Alcotest.(check bool) "well formed" true (Effect.well_formed e)

let test_update_then_delete_is_delete () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (Effect.of_updated [ (h1, [ "c" ]) ])
      (Effect.of_deleted [ h1 ])
  in
  Alcotest.(check bool) "del" true (Handle.Set.mem h1 (Effect.del e));
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (Effect.upd e))

let test_updates_merge () =
  let h1 = h "t" in
  let e =
    Effect.compose
      (Effect.of_updated [ (h1, [ "a" ]) ])
      (Effect.of_updated [ (h1, [ "b" ]) ])
  in
  let cols = Handle.Map.find h1 (Effect.upd e) in
  Alcotest.(check bool) "a" true (Effect.Col_set.mem "a" cols);
  Alcotest.(check bool) "b" true (Effect.Col_set.mem "b" cols)

(* Delete then insert of a NEW tuple is never treated as an update
   (Section 2.2): the handles differ, so both survive composition. *)
let test_delete_then_insert_not_update () =
  let h1 = h "t" and h2 = h "t" in
  let e =
    Effect.compose (Effect.of_deleted [ h1 ]) (Effect.of_inserted [ h2 ])
  in
  Alcotest.(check bool) "del kept" true (Handle.Set.mem h1 (Effect.del e));
  Alcotest.(check bool) "ins kept" true (Handle.Set.mem h2 (Effect.ins e));
  Alcotest.(check bool) "no upd" true (Handle.Map.is_empty (Effect.upd e))

let test_identity () =
  let h1 = h "t" in
  let e = Effect.of_updated [ (h1, [ "c" ]) ] in
  Alcotest.check eff_testable "left id" e (Effect.compose Effect.empty e);
  Alcotest.check eff_testable "right id" e (Effect.compose e Effect.empty)

let test_triggering_predicates () =
  let he = h "emp" and hd = h "dept" in
  let e =
    Effect.compose
      (Effect.of_inserted [ he ])
      (Effect.of_updated [ (hd, [ "mgr_no" ]) ])
  in
  let sat p = Effect.satisfies_pred e p in
  Alcotest.(check bool) "inserted emp" true (sat (Ast.Tp_inserted "emp"));
  Alcotest.(check bool) "inserted dept" false (sat (Ast.Tp_inserted "dept"));
  Alcotest.(check bool) "deleted emp" false (sat (Ast.Tp_deleted "emp"));
  Alcotest.(check bool) "updated dept" true (sat (Ast.Tp_updated ("dept", None)));
  Alcotest.(check bool) "updated dept.mgr_no" true
    (sat (Ast.Tp_updated ("dept", Some "mgr_no")));
  Alcotest.(check bool) "updated dept.dept_no" false
    (sat (Ast.Tp_updated ("dept", Some "dept_no")));
  Alcotest.(check bool) "disjunction" true
    (Effect.satisfies_any e [ Ast.Tp_deleted "emp"; Ast.Tp_inserted "emp" ]);
  Alcotest.(check bool) "empty disjunction" false (Effect.satisfies_any e [])

let test_select_component () =
  let he = h "emp" in
  let e = Effect.of_selected [ (he, [ "salary" ]) ] in
  Alcotest.(check bool) "selected emp" true
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", None)));
  Alcotest.(check bool) "selected emp.salary" true
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", Some "salary")));
  Alcotest.(check bool) "selected emp.name" false
    (Effect.satisfies_pred e (Ast.Tp_selected ("emp", Some "name")));
  (* selection of a tuple later deleted is dropped *)
  let e2 = Effect.compose e (Effect.of_deleted [ he ]) in
  Alcotest.(check bool) "pruned" false
    (Effect.satisfies_pred e2 (Ast.Tp_selected ("emp", None)))

(* ------------------------------------------------------------------ *)
(* Property tests: generate valid operation histories over a handle
   pool and check algebraic laws of composition.                       *)

let gen_history =
  (* produce a list of effects corresponding to a valid history *)
  let open QCheck.Gen in
  let cols = [ "a"; "b"; "c" ] in
  let gen_step = frequency
      [ (2, return `Ins); (1, return `Del); (3, return `Upd) ]
  in
  let rec build live acc n st =
    if n = 0 then List.rev acc
    else
      let step = gen_step st in
      match step with
      | `Ins ->
        let hh = Handle.fresh "sim" in
        build (hh :: live) (Effect.of_inserted [ hh ] :: acc) (n - 1) st
      | `Del when live <> [] ->
        let i = int_bound (List.length live - 1) st in
        let victim = List.nth live i in
        let live = List.filteri (fun j _ -> j <> i) live in
        build live (Effect.of_deleted [ victim ] :: acc) (n - 1) st
      | `Upd when live <> [] ->
        let i = int_bound (List.length live - 1) st in
        let c = List.nth cols (int_bound (List.length cols - 1) st) in
        build live
          (Effect.of_updated [ (List.nth live i, [ c ]) ] :: acc)
          (n - 1) st
      | _ -> build live acc n st
  in
  fun st ->
    let n = int_range 1 12 st in
    build [] [] n st

let arb_history =
  QCheck.make
    ~print:(fun effs ->
      String.concat "; " (List.map (fun e -> Fmt.str "%a" Effect.pp e) effs))
    gen_history

let fold_compose = List.fold_left Effect.compose Effect.empty

let prop_composition_associative =
  QCheck.Test.make ~name:"effect composition is associative over histories"
    ~count:300 arb_history (fun effs ->
      (* compare left fold against a right fold *)
      let left = fold_compose effs in
      let right = List.fold_right (fun e acc -> Effect.compose e acc) effs Effect.empty in
      Effect.equal left right)

let prop_composition_well_formed =
  QCheck.Test.make ~name:"composition preserves well-formedness" ~count:300
    arb_history (fun effs ->
      List.for_all Effect.well_formed effs && Effect.well_formed (fold_compose effs))

let prop_split_composition =
  QCheck.Test.make
    ~name:"composite of prefix and suffix equals composite of whole"
    ~count:300
    QCheck.(pair arb_history small_nat)
    (fun (effs, k) ->
      let n = List.length effs in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let rec split i = function
        | rest when i = 0 -> ([], rest)
        | [] -> ([], [])
        | x :: rest ->
          let a, b = split (i - 1) rest in
          (x :: a, b)
      in
      let prefix, suffix = split k effs in
      Effect.equal
        (Effect.compose (fold_compose prefix) (fold_compose suffix))
        (fold_compose effs))

(* ------------------------------------------------------------------ *)
(* The flat reference model.  Definition 2.1 exactly as the paper
   states it, over unpartitioned components — the representation
   [Effect] used before it was partitioned by table.  The partitioned
   implementation must agree with it on every operation the engine
   uses, over valid multi-table histories with selects.               *)

module Flat = struct
  module C = Effect.Col_set

  type t = {
    ins : Handle.Set.t;
    del : Handle.Set.t;
    upd : C.t Handle.Map.t;
    sel : C.t Handle.Map.t;
  }

  let empty =
    { ins = Handle.Set.empty; del = Handle.Set.empty; upd = Handle.Map.empty;
      sel = Handle.Map.empty }

  let union_cols = Handle.Map.union (fun _ a b -> Some (C.union a b))

  let compose e1 e2 =
    let ins = Handle.Set.diff (Handle.Set.union e1.ins e2.ins) e2.del in
    let del = Handle.Set.diff (Handle.Set.union e1.del e2.del) e1.ins in
    let drop = Handle.Set.union e2.del e1.ins in
    let prune = Handle.Map.filter (fun h _ -> not (Handle.Set.mem h drop)) in
    { ins; del; upd = prune (union_cols e1.upd e2.upd); sel = prune (union_cols e1.sel e2.sel) }

  let restrict e keep =
    let k h = keep (Handle.table h) in
    { ins = Handle.Set.filter k e.ins; del = Handle.Set.filter k e.del;
      upd = Handle.Map.filter (fun h _ -> k h) e.upd;
      sel = Handle.Map.filter (fun h _ -> k h) e.sel }

  let tables e =
    let add h acc = C.add (Handle.table h) acc in
    Handle.Map.fold (fun h _ a -> add h a) e.sel
      (Handle.Map.fold (fun h _ a -> add h a) e.upd
         (Handle.Set.fold add e.del (Handle.Set.fold add e.ins C.empty)))

  let cardinality e =
    Handle.Set.cardinal e.ins + Handle.Set.cardinal e.del
    + Handle.Map.cardinal e.upd + Handle.Map.cardinal e.sel

  let satisfies e (pred : Ast.basic_trans_pred) =
    let in_t t h = String.equal (Handle.table h) t in
    match pred with
    | Ast.Tp_inserted t -> Handle.Set.exists (in_t t) e.ins
    | Ast.Tp_deleted t -> Handle.Set.exists (in_t t) e.del
    | Ast.Tp_updated (t, c) ->
      Handle.Map.exists (fun h cs -> in_t t h && Option.fold ~none:true ~some:(fun c -> C.mem c cs) c) e.upd
    | Ast.Tp_selected (t, c) ->
      Handle.Map.exists (fun h cs -> in_t t h && Option.fold ~none:true ~some:(fun c -> C.mem c cs) c) e.sel

  let cols_of pairs =
    List.fold_left (fun m (h, cols) -> Handle.Map.add h (C.of_list cols) m) Handle.Map.empty pairs

  let agrees (flat : t) (e : Effect.t) =
    Handle.Set.equal flat.ins (Effect.ins e)
    && Handle.Set.equal flat.del (Effect.del e)
    && Handle.Map.equal C.equal flat.upd (Effect.upd e)
    && Handle.Map.equal C.equal flat.sel (Effect.sel e)
end

(* Valid histories over two tables: inserts mint fresh handles,
   deletes, updates and selects touch live tuples only; every step is
   generated as both a partitioned and a flat single-operation
   effect. *)
let gen_mixed_history st =
  let open QCheck.Gen in
  let tables = [| "p"; "q" |] and cols = [| "a"; "b"; "c" |] in
  let pick_cols () =
    List.sort_uniq compare (List.init (1 + int_bound 1 st) (fun _ -> cols.(int_bound 2 st)))
  in
  let rec build live acc n =
    if n = 0 then List.rev acc
    else
      let some_live () =
        List.filter (fun _ -> int_bound 2 st = 0) live |> function [] -> [ List.hd live ] | l -> l
      in
      match int_bound 5 st with
      | 0 | 1 ->
        let hs = List.init (1 + int_bound 2 st) (fun _ -> Handle.fresh tables.(int_bound 1 st)) in
        build (hs @ live) ((Effect.of_inserted hs, { Flat.empty with ins = Handle.Set.of_list hs }) :: acc) (n - 1)
      | 2 when live <> [] ->
        let victims = some_live () in
        let live = List.filter (fun h -> not (List.memq h victims)) live in
        build live ((Effect.of_deleted victims, { Flat.empty with del = Handle.Set.of_list victims }) :: acc) (n - 1)
      | 3 when live <> [] ->
        let c = pick_cols () in
        let pairs = List.map (fun h -> (h, c)) (some_live ()) in
        build live ((Effect.of_updated pairs, { Flat.empty with upd = Flat.cols_of pairs }) :: acc) (n - 1)
      | (4 | 5) when live <> [] ->
        let c = pick_cols () in
        let pairs = List.map (fun h -> (h, c)) (some_live ()) in
        build live ((Effect.of_selected pairs, { Flat.empty with sel = Flat.cols_of pairs }) :: acc) (n - 1)
      | _ -> build live acc n
  in
  build [] [] (int_range 1 14 st)

let arb_mixed =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map (fun (e, _) -> Fmt.str "%a" Effect.pp e) steps))
    gen_mixed_history

let all_preds =
  List.concat_map
    (fun t ->
      [ Ast.Tp_inserted t; Ast.Tp_deleted t; Ast.Tp_updated (t, None); Ast.Tp_selected (t, None) ]
      @ List.concat_map (fun c -> [ Ast.Tp_updated (t, Some c); Ast.Tp_selected (t, Some c) ]) [ "a"; "b"; "c" ])
    [ "p"; "q" ]

let prop_agrees_with_flat_model =
  QCheck.Test.make ~name:"partitioned effect = flat Definition 2.1 model" ~count:300 arb_mixed
    (fun steps ->
      let e = List.fold_left (fun acc (e, _) -> Effect.compose acc e) Effect.empty steps in
      let f = List.fold_left (fun acc (_, f) -> Flat.compose acc f) Flat.empty steps in
      let keep t = String.equal t "p" in
      Flat.agrees f e && Effect.well_formed e
      && Flat.agrees (Flat.restrict f keep) (Effect.restrict e keep)
      && Effect.Col_set.equal (Flat.tables f) (Effect.tables e)
      && Flat.cardinality f = Effect.cardinality e
      && List.for_all (fun p -> Flat.satisfies f p = Effect.satisfies_pred e p) all_preds)

(* The table-level queries the discrimination index and the server's
   conflict checks use, against the same model: the basic predicates
   [fold_satisfied] visits are exactly those the effect satisfies, and
   the read/written table sets and written handles are the flat
   definitions. *)
let prop_table_queries_agree =
  QCheck.Test.make ~name:"table-level effect queries = flat model" ~count:300 arb_mixed
    (fun steps ->
      let e = List.fold_left (fun acc (e, _) -> Effect.compose acc e) Effect.empty steps in
      let f = List.fold_left (fun acc (_, f) -> Flat.compose acc f) Flat.empty steps in
      let module C = Effect.Col_set in
      let tables_of hs = Handle.Set.fold (fun h acc -> C.add (Handle.table h) acc) hs C.empty in
      let keys m = Handle.Map.fold (fun h _ acc -> Handle.Set.add h acc) m Handle.Set.empty in
      let visited = Effect.fold_satisfied (fun p acc -> p :: acc) e [] in
      let written = Handle.Set.union f.Flat.del (keys f.Flat.upd) in
      List.sort compare visited = List.sort compare (List.filter (Flat.satisfies f) all_preds)
      && Handle.Set.equal written (Effect.written_handles e)
      && C.equal (tables_of (Handle.Set.union written f.Flat.ins)) (Effect.written_tables e)
      && C.equal (tables_of (Handle.Set.union written (keys f.Flat.sel))) (Effect.read_tables e))

let prop_partitioned_associative =
  QCheck.Test.make ~name:"partitioned composition is associative" ~count:300
    QCheck.(pair arb_mixed small_nat)
    (fun (steps, k) ->
      let effs = List.map fst steps in
      let n = List.length effs in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let prefix = List.filteri (fun i _ -> i < k) effs
      and suffix = List.filteri (fun i _ -> i >= k) effs in
      let left = fold_compose effs in
      Effect.equal left (List.fold_right Effect.compose effs Effect.empty)
      && Effect.equal left (Effect.compose (fold_compose prefix) (fold_compose suffix)))

let suite =
  [
    Alcotest.test_case "single-op effects" `Quick test_single_op_effects;
    Alcotest.test_case "insert;delete nets to nothing" `Quick
      test_insert_then_delete_is_nothing;
    Alcotest.test_case "insert;update nets to insert" `Quick
      test_insert_then_update_is_insert;
    Alcotest.test_case "update;delete nets to delete" `Quick
      test_update_then_delete_is_delete;
    Alcotest.test_case "updates merge columns" `Quick test_updates_merge;
    Alcotest.test_case "delete;insert stays delete+insert" `Quick
      test_delete_then_insert_not_update;
    Alcotest.test_case "empty is identity" `Quick test_identity;
    Alcotest.test_case "triggering predicates" `Quick test_triggering_predicates;
    Alcotest.test_case "select component (ext 5.1)" `Quick test_select_component;
    qtest prop_composition_associative;
    qtest prop_composition_well_formed;
    qtest prop_split_composition;
    qtest prop_agrees_with_flat_model;
    qtest prop_partitioned_associative;
    qtest prop_table_queries_agree;
  ]
