(* The reference evaluator: the plain set-oriented semantics of the
   paper's Section 2, written down as directly as possible.

   It works over [relation]s — named column lists plus rows — rather
   than stored tables, so the same machinery evaluates base tables,
   derived tables and the paper's transition tables.  A [resolver] maps
   AST table sources to relations; the rules engine supplies a resolver
   that also knows the triggering rule's transition tables.

   Every FROM list is the nested-loop cross product of fully realized
   sources, filtered by the WHERE clause row by row, and every embedded
   select is re-evaluated wherever it occurs.  There are no indexes, no
   hash joins, no cost model and no memoization: the compiling executor
   ([Compile]) owns all of that, and this module shares none of its
   planning code, so the differential tests that run both catch
   planner bugs instead of reproducing them.

   SQL three-valued logic: predicates evaluate to [Value.Bool _] or
   [Value.Null] (unknown); a row is selected only when the predicate is
   definitely true. *)

open Relational

type relation = { rel_name : string; cols : string array; rows : Row.t list }

type resolver = Ast.table_source -> relation

let relation_of_table tbl =
  { rel_name = Table.name tbl; cols = Table.col_names tbl; rows = Table.rows tbl }

(* A resolver over base tables only; referencing a transition table
   outside rule processing is an error. *)
let base_resolver db : resolver = function
  | Ast.Base name -> relation_of_table (Database.table db name)
  | Ast.Transition tt ->
    Errors.raise_error
      (Errors.Invalid_transition_reference (Pretty.trans_table_str tt))
  | Ast.Derived _ ->
    (* Derived tables are evaluated by the select evaluator itself and
       never reach the resolver. *)
    assert false

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)

type binding = { bind_name : string; bind_cols : string array; bind_row : Row.t }

(* Innermost scope first; each frame is the from-list of one select. *)
type env = binding list list

let empty_env : env = []

let binding_lookup b column =
  let rec go i =
    if i >= Array.length b.bind_cols then None
    else if String.equal b.bind_cols.(i) column then Some b.bind_row.(i)
    else go (i + 1)
  in
  go 0

(* Resolve a column reference: search scopes innermost-first; within a
   scope a qualified reference must match a binding name, an
   unqualified one must be unambiguous. *)
let lookup_column (env : env) qualifier column =
  let in_frame frame =
    match qualifier with
    | Some q -> (
      match List.find_opt (fun b -> String.equal b.bind_name q) frame with
      | None -> None
      | Some b -> (
        match binding_lookup b column with
        | Some v -> Some v
        | None ->
          Errors.raise_error
            (Errors.Unknown_column { table = Some q; column })))
    | None -> (
      let hits = List.filter_map (fun b -> binding_lookup b column) frame in
      match hits with
      | [] -> None
      | [ v ] -> Some v
      | _ :: _ :: _ -> Errors.raise_error (Errors.Ambiguous_column column))
  in
  let rec go = function
    | [] ->
      Errors.raise_error (Errors.Unknown_column { table = qualifier; column })
    | frame :: rest -> (
      match in_frame frame with Some v -> v | None -> go rest)
  in
  go env

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)

type context = {
  resolve : resolver;
  (* [Some envs]: we are inside a grouped evaluation and aggregate
     functions range over [envs]. *)
  group : env list option;
}

let truth_value = function
  | Value.True -> Value.Bool true
  | Value.False -> Value.Bool false
  | Value.Unknown -> Value.Null

let value_truth = function
  | Value.Bool true -> Value.True
  | Value.Bool false -> Value.False
  | Value.Null -> Value.Unknown
  | v ->
    Errors.type_error "expected a boolean predicate value, got %s"
      (Value.to_string v)

(* Stable sort of values tagged with ORDER BY keys. *)
let sort_by_keys keyed =
  let cmp (ka, _) (kb, _) =
    let rec go a b =
      match a, b with
      | [], [] -> 0
      | (va, dir) :: ra, (vb, _) :: rb ->
        let c = Value.compare_total va vb in
        let c = match dir with `Asc -> c | `Desc -> -c in
        if c <> 0 then c else go ra rb
      | _ -> 0
    in
    go ka kb
  in
  List.stable_sort cmp keyed

let rec eval_expr ctx (env : env) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Lit v -> v
  | Ast.Param i ->
    (* the reference evaluator runs EXECUTE by substituting argument
       literals into the AST, so a surviving parameter is one that never
       bound *)
    Errors.raise_error
      (Errors.Parameter_error
         (Printf.sprintf "parameter %d is unbound (use PREPARE/EXECUTE)" (i + 1)))
  | Ast.Col { qualifier; column } ->
    lookup_column env qualifier column
  | Ast.Binop (op, a, b) ->
    let va = eval_expr ctx env a and vb = eval_expr ctx env b in
    (match op with
    | Ast.Add -> Value.add va vb
    | Ast.Sub -> Value.sub va vb
    | Ast.Mul -> Value.mul va vb
    | Ast.Div -> Value.div va vb
    | Ast.Mod -> Value.rem va vb
    | Ast.Concat -> Value.concat va vb)
  | Ast.Neg a -> Value.neg (eval_expr ctx env a)
  | Ast.Cmp (op, a, b) -> (
    let va = eval_expr ctx env a and vb = eval_expr ctx env b in
    match Value.compare_sql va vb with
    | None -> Value.Null
    | Some c ->
      let holds =
        match op with
        | Ast.Eq -> c = 0
        | Ast.Neq -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0
      in
      Value.Bool holds)
  | Ast.And (a, b) ->
    truth_value
      (Value.truth_and
         (value_truth (eval_expr ctx env a))
         (value_truth (eval_expr ctx env b)))
  | Ast.Or (a, b) ->
    truth_value
      (Value.truth_or
         (value_truth (eval_expr ctx env a))
         (value_truth (eval_expr ctx env b)))
  | Ast.Not a -> truth_value (Value.truth_not (value_truth (eval_expr ctx env a)))
  | Ast.Is_null a -> Value.Bool (Value.is_null (eval_expr ctx env a))
  | Ast.Is_not_null a -> Value.Bool (not (Value.is_null (eval_expr ctx env a)))
  | Ast.In_list (a, es) ->
    let v = eval_expr ctx env a in
    in_semantics v (List.map (eval_expr ctx env) es)
  | Ast.Not_in_list (a, es) ->
    let v = eval_expr ctx env a in
    truth_value (Value.truth_not (value_truth (in_semantics v (List.map (eval_expr ctx env) es))))
  | Ast.In_select (a, s) ->
    let v = eval_expr ctx env a in
    in_semantics v (subquery_column ctx env s)
  | Ast.Not_in_select (a, s) ->
    let v = eval_expr ctx env a in
    truth_value
      (Value.truth_not (value_truth (in_semantics v (subquery_column ctx env s))))
  | Ast.Exists s ->
    let rel = eval_select_inner ctx env s in
    Value.Bool (rel.rows <> [])
  | Ast.Between (a, low, high) ->
    let v = eval_expr ctx env a in
    let vl = eval_expr ctx env low and vh = eval_expr ctx env high in
    let ge =
      match Value.compare_sql v vl with
      | None -> Value.Unknown
      | Some c -> Value.truth_of_bool (c >= 0)
    and le =
      match Value.compare_sql v vh with
      | None -> Value.Unknown
      | Some c -> Value.truth_of_bool (c <= 0)
    in
    truth_value (Value.truth_and ge le)
  | Ast.Like (a, p) ->
    truth_value (Value.like (eval_expr ctx env a) (eval_expr ctx env p))
  | Ast.Scalar_select s -> (
    let rel = eval_select_inner ctx env s in
    (match rel.cols with
    | [| _ |] -> ()
    | _ -> Errors.semantic "scalar subquery must return a single column");
    match rel.rows with
    | [] -> Value.Null
    | [ row ] -> row.(0)
    | _ :: _ :: _ -> Errors.semantic "scalar subquery returned more than one row")
  | Ast.Agg (fn, arg) -> eval_aggregate ctx env fn arg
  | Ast.Fn (name, args) -> Functions.apply name (List.map (eval_expr ctx env) args)
  | Ast.Case (branches, else_) ->
    let rec go = function
      | [] -> (
        match else_ with None -> Value.Null | Some e -> eval_expr ctx env e)
      | (c, v) :: rest ->
        if Value.truth_holds (value_truth (eval_expr ctx env c)) then
          eval_expr ctx env v
        else go rest
    in
    go branches

(* SQL IN semantics: TRUE if some element equals, UNKNOWN if no element
   equals but some comparison was unknown, FALSE otherwise. *)
and in_semantics v values =
  let result =
    List.fold_left
      (fun acc elt -> Value.truth_or acc (Value.eq_sql v elt))
      Value.False values
  in
  truth_value result

and subquery_column ctx env s =
  let rel = eval_select_inner ctx env s in
  (match rel.cols with
  | [| _ |] -> ()
  | _ -> Errors.semantic "IN subquery must return a single column");
  List.map (fun row -> row.(0)) rel.rows

and eval_aggregate ctx _env fn arg =
  match ctx.group with
  | None -> Errors.semantic "aggregate function used outside a grouped query"
  | Some group_envs -> (
    (* Aggregates never nest: the argument is evaluated per group row
       in non-grouped context. *)
    let inner_ctx = { ctx with group = None } in
    match fn, arg with
    | Ast.Count_star, _ -> Value.Int (List.length group_envs)
    | _, None -> Errors.semantic "aggregate function requires an argument"
    | fn, Some e -> (
      let values =
        List.filter_map
          (fun row_env ->
            let v = eval_expr inner_ctx row_env e in
            if Value.is_null v then None else Some v)
          group_envs
      in
      match fn with
      | Ast.Count_star -> assert false
      | Ast.Count -> Value.Int (List.length values)
      | Ast.Sum ->
        if values = [] then Value.Null
        else List.fold_left Value.add (Value.Int 0) values
      | Ast.Avg -> (
        if values = [] then Value.Null
        else
          let sum = List.fold_left Value.add (Value.Int 0) values in
          match Value.to_float sum with
          | Some f -> Value.Float (f /. float_of_int (List.length values))
          | None -> Errors.type_error "avg over non-numeric values")
      | Ast.Min ->
        if values = [] then Value.Null
        else
          List.fold_left
            (fun acc v -> if Value.compare_total v acc < 0 then v else acc)
            (List.hd values) values
      | Ast.Max ->
        if values = [] then Value.Null
        else
          List.fold_left
            (fun acc v -> if Value.compare_total v acc > 0 then v else acc)
            (List.hd values) values))

(* ------------------------------------------------------------------ *)
(* SELECT evaluation                                                   *)

and select_contains_agg (s : Ast.select) =
  let rec expr_has_agg = function
    | Ast.Agg _ -> true
    | Ast.Lit _ | Ast.Param _ | Ast.Col _ -> false
    | Ast.Binop (_, a, b)
    | Ast.Cmp (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Like (a, b) -> expr_has_agg a || expr_has_agg b
    | Ast.Neg a | Ast.Not a | Ast.Is_null a | Ast.Is_not_null a -> expr_has_agg a
    | Ast.In_list (a, es) | Ast.Not_in_list (a, es) ->
      expr_has_agg a || List.exists expr_has_agg es
    | Ast.In_select (a, _) | Ast.Not_in_select (a, _) -> expr_has_agg a
    | Ast.Exists _ | Ast.Scalar_select _ ->
      (* aggregates inside a subquery belong to the subquery *)
      false
    | Ast.Fn (_, args) -> List.exists expr_has_agg args
    | Ast.Between (a, b, c) -> expr_has_agg a || expr_has_agg b || expr_has_agg c
    | Ast.Case (branches, else_) ->
      List.exists (fun (c, v) -> expr_has_agg c || expr_has_agg v) branches
      || Option.fold ~none:false ~some:expr_has_agg else_
  in
  s.Ast.group_by <> []
  || Option.fold ~none:false ~some:expr_has_agg s.Ast.having
  || List.exists
       (function
         | Ast.Star | Ast.Table_star _ -> false
         | Ast.Proj (e, _) -> expr_has_agg e)
       s.Ast.projections

and default_proj_name e =
  match e with
  | Ast.Col { column; _ } -> column
  | e -> Pretty.expr_str e

(* Materialize the from-list as row environments, each extended with
   the outer scopes: the nested-loop cross product of the sources in
   FROM order. *)
and from_row_envs ctx (outer : env) (from : Ast.from_item list) : env list =
  let resolve_item ix item =
    let rel =
      match item.Ast.source with
      | Ast.Derived s -> eval_select_inner ctx outer s
      | (Ast.Base _ | Ast.Transition _) as src -> ctx.resolve src
    in
    let name =
      match item.Ast.alias with
      | Some a -> a
      | None -> if rel.rel_name = "" then Printf.sprintf "$%d" ix else rel.rel_name
    in
    (name, rel.cols, rel.rows)
  in
  let sources = List.mapi resolve_item from in
  (* duplicate binding names within one frame are rejected: unqualified
     references could silently pick the wrong one *)
  let rec check = function
    | [] -> ()
    | n :: rest ->
      if List.exists (String.equal n) rest then
        Errors.semantic
          "duplicate table name %S in from clause; use an alias" n;
      check rest
  in
  check (List.map (fun (n, _, _) -> n) sources);
  (* partial frames are built in reverse binding order *)
  let extend partials (name, cols, rows) =
    List.concat_map
      (fun partial ->
        List.map
          (fun row -> { bind_name = name; bind_cols = cols; bind_row = row } :: partial)
          rows)
      partials
  in
  let frames = List.fold_left extend [ [] ] sources in
  List.map (fun frame -> List.rev frame :: outer) frames

and project_columns ctx (frame_env : env) (projections : Ast.proj list) =
  (* Expand stars against the local frame of [frame_env]. *)
  let local_frame = match frame_env with [] -> [] | f :: _ -> f in
  List.concat_map
    (function
      | Ast.Star ->
        List.concat_map
          (fun b ->
            Array.to_list
              (Array.mapi
                 (fun i c -> (c, b.bind_row.(i)))
                 b.bind_cols))
          local_frame
      | Ast.Table_star t -> (
        match List.find_opt (fun b -> String.equal b.bind_name t) local_frame with
        | None -> Errors.raise_error (Errors.Unknown_table t)
        | Some b ->
          Array.to_list
            (Array.mapi (fun i c -> (c, b.bind_row.(i))) b.bind_cols))
      | Ast.Proj (e, alias) ->
        let name =
          match alias with Some a -> a | None -> default_proj_name e
        in
        [ (name, eval_expr ctx frame_env e) ])
    projections

and eval_select_inner ctx (outer : env) (s : Ast.select) : relation =
  match s.Ast.compounds with
  | _ :: _ -> eval_compound ctx outer s
  | [] -> eval_select_plain ctx outer s

(* Compound (set) operations: evaluate each core, combine the row
   multisets, then apply the trailing ORDER BY / LIMIT over the
   combined result (sort keys may reference the projected column
   names). *)
and eval_compound ctx outer (s : Ast.select) : relation =
  let head =
    eval_select_plain ctx outer
      { s with Ast.compounds = []; order_by = []; limit = None }
  in
  let module Row_set = Set.Make (struct
    type t = Row.t

    let compare = Row.compare_total
  end) in
  let dedupe rows =
    let _, acc =
      List.fold_left
        (fun (seen, acc) row ->
          if Row_set.mem row seen then (seen, acc)
          else (Row_set.add row seen, row :: acc))
        (Row_set.empty, []) rows
    in
    List.rev acc
  in
  let combined =
    List.fold_left
      (fun rows (op, sub) ->
        let part = eval_select_plain ctx outer sub in
        if Array.length part.cols <> Array.length head.cols then
          Errors.semantic
            "compound select operands must have the same number of columns";
        match op with
        | Ast.Union_all -> rows @ part.rows
        | Ast.Union -> dedupe (rows @ part.rows)
        | Ast.Except ->
          let right = Row_set.of_list part.rows in
          dedupe (List.filter (fun row -> not (Row_set.mem row right)) rows)
        | Ast.Intersect ->
          let right = Row_set.of_list part.rows in
          dedupe (List.filter (fun row -> Row_set.mem row right) rows))
      head.rows s.Ast.compounds
  in
  (* trailing ORDER BY over the combined projected rows *)
  let ordered =
    match s.Ast.order_by with
    | [] -> combined
    | order_by ->
      let keyed =
        List.map
          (fun row ->
            let env =
              [ [ { bind_name = ""; bind_cols = head.cols; bind_row = row } ] ]
            in
            let keys =
              List.map
                (fun (e, dir) ->
                  (eval_expr { ctx with group = None } env e, dir))
                order_by
            in
            (keys, row))
          combined
      in
      List.map snd (sort_by_keys keyed)
  in
  let rows =
    match s.Ast.limit with
    | None -> ordered
    | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k <= 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      take n ordered
  in
  { rel_name = ""; cols = head.cols; rows }

and eval_select_plain ctx (outer : env) (s : Ast.select) : relation =
  let row_envs = from_row_envs ctx outer s.Ast.from in
  (* WHERE *)
  let where_ctx = { ctx with group = None } in
  let filtered =
    match s.Ast.where with
    | None -> row_envs
    | Some pred ->
      List.filter
        (fun env -> Value.truth_holds (value_truth (eval_expr where_ctx env pred)))
        row_envs
  in
  let grouped = select_contains_agg s in
  let result_pairs =
    if not grouped then
      List.map (fun env -> project_columns where_ctx env s.Ast.projections) filtered
    else begin
      (* group rows by the group_by key *)
      let groups =
        if s.Ast.group_by = [] then
          (* single global group; present even when empty *)
          [ filtered ]
        else begin
          let module Key_map = Map.Make (struct
            type t = Row.t

            let compare = Row.compare_total
          end) in
          let order = ref [] in
          let m =
            List.fold_left
              (fun m env ->
                let key =
                  Array.of_list
                    (List.map (eval_expr where_ctx env) s.Ast.group_by)
                in
                match Key_map.find_opt key m with
                | Some rows -> Key_map.add key (env :: rows) m
                | None ->
                  order := key :: !order;
                  Key_map.add key [ env ] m)
              Key_map.empty filtered
          in
          List.rev_map (fun key -> List.rev (Key_map.find key m)) !order
          |> List.rev
        end
      in
      let eval_group group_envs =
        let group_ctx = { ctx with group = Some group_envs } in
        (* Non-aggregate column references use the first row of the
           group (all rows agree on group-by columns). *)
        let rep_env =
          match group_envs with e :: _ -> e | [] -> [] :: outer
        in
        let keep =
          match s.Ast.having with
          | None -> true
          | Some h -> Value.truth_holds (value_truth (eval_expr group_ctx rep_env h))
        in
        if keep then Some (project_columns group_ctx rep_env s.Ast.projections)
        else None
      in
      List.filter_map eval_group groups
    end
  in
  (* ORDER BY: evaluate sort keys in the corresponding environments.
     For simplicity we sort the projected rows by keys computed
     alongside projection; recompute by pairing envs with results. *)
  let ordered_pairs =
    match s.Ast.order_by with
    | [] -> result_pairs
    | order_by ->
      let envs_for_sort =
        if not grouped then
          match s.Ast.where with
          | None -> row_envs
          | Some _ -> filtered
        else []
      in
      if grouped then
        (* Order grouped output by keys computed over the projected
           values: only projected column names may be referenced. *)
        let keyed =
          List.map
            (fun pairs ->
              let cols = Array.of_list (List.map fst pairs) in
              let row = Array.of_list (List.map snd pairs) in
              let env =
                [ [ { bind_name = ""; bind_cols = cols; bind_row = row } ] ]
              in
              let keys =
                List.map
                  (fun (e, dir) -> (eval_expr where_ctx env e, dir))
                  order_by
              in
              (keys, pairs))
            result_pairs
        in
        List.map snd (sort_by_keys keyed)
      else
        let keyed =
          List.map2
            (fun env pairs ->
              let keys =
                List.map
                  (fun (e, dir) -> (eval_expr where_ctx env e, dir))
                  order_by
              in
              (keys, pairs))
            envs_for_sort result_pairs
        in
        List.map snd (sort_by_keys keyed)
  in
  let cols =
    match ordered_pairs with
    | pairs :: _ -> Array.of_list (List.map fst pairs)
    | [] -> static_output_columns ctx s
  in
  let rows = List.map (fun pairs -> Array.of_list (List.map snd pairs)) ordered_pairs in
  let rows =
    if s.Ast.distinct then begin
      let module Row_set = Set.Make (struct
        type t = Row.t

        let compare = Row.compare_total
      end) in
      let _, acc =
        List.fold_left
          (fun (seen, acc) row ->
            if Row_set.mem row seen then (seen, acc)
            else (Row_set.add row seen, row :: acc))
          (Row_set.empty, []) rows
      in
      List.rev acc
    end
    else rows
  in
  let rows =
    match s.Ast.limit with
    | None -> rows
    | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k <= 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      take n rows
  in
  { rel_name = ""; cols; rows }

(* Output column names when the result has no rows: derive them from
   the projection list and the source schemas. *)
and static_output_columns ctx (s : Ast.select) =
  let source_cols item =
    match item.Ast.source with
    | Ast.Derived sub -> (
      match item.Ast.alias with
      | Some a -> Some (a, (eval_select_inner ctx [] sub).cols)
      | None -> Some ("", (eval_select_inner ctx [] sub).cols))
    | src -> (
      let rel = try Some (ctx.resolve src) with _ -> None in
      match rel with
      | None -> None
      | Some rel ->
        let name =
          match item.Ast.alias with Some a -> a | None -> rel.rel_name
        in
        Some (name, rel.cols))
  in
  let sources = List.filter_map source_cols s.Ast.from in
  let names =
    List.concat_map
      (function
        | Ast.Star -> List.concat_map (fun (_, cols) -> Array.to_list cols) sources
        | Ast.Table_star t -> (
          match List.find_opt (fun (n, _) -> String.equal n t) sources with
          | Some (_, cols) -> Array.to_list cols
          | None -> [])
        | Ast.Proj (e, alias) ->
          [ (match alias with Some a -> a | None -> default_proj_name e) ])
      s.Ast.projections
  in
  Array.of_list names

(* Public entry points *)

let make_context resolve = { resolve; group = None }

let eval_select ?(outer = empty_env) resolve s =
  (* exception-safety injection site: only the public entry, so the hit
     count per operation stays bounded (subqueries recurse through
     [eval_select_inner] directly) *)
  Fault.hit Fault.Query_eval;
  eval_select_inner (make_context resolve) outer s

let eval_expr_in ?(outer = empty_env) resolve env e =
  eval_expr (make_context resolve) (env @ outer) e

let eval_predicate ?(outer = empty_env) resolve env e =
  Value.truth_holds (value_truth (eval_expr (make_context resolve) (env @ outer) e))
