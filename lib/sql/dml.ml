(* Execution of data manipulation operations with their affected sets
   (paper Section 2.1):

   - insert: the affected set contains the handles of inserted tuples;
   - delete: the handles of the tuples removed (which after execution
     identify tuples of a previous database state);
   - update: one (handle, column) pair for every column assigned by the
     SET list of every selected tuple, whether or not the stored value
     changed;
   - select (Section 5.1 extension): the handles and columns read.

   Each operation runs against a snapshot of the state at its start:
   tuples are identified first, then changed, so a subquery in a
   predicate or SET expression never observes the operation's own
   partial effects. *)

open Relational

type affected =
  | A_insert of Handle.t list
  | A_delete of (Handle.t * Row.t) list
  | A_update of (Handle.t * string list * Row.t) list (* old rows *)
  | A_select of (Handle.t * string list) list

type op_result = {
  db : Database.t;
  affected : affected;
  result : Eval.relation option; (* rows produced, for select operations *)
}

(* Build the single-row environment binding a table's row under its
   table name, used to evaluate per-tuple predicates and SET
   expressions. *)
let row_env tbl row =
  [
    [
      {
        Eval.bind_name = Table.name tbl;
        bind_cols = Table.col_names tbl;
        bind_row = row;
      };
    ];
  ]

(* Place an INSERT's values into a row of [tbl]: positionally, or —
   with an explicit column list — scattered into schema positions,
   unspecified columns getting their default or NULL. *)
let position_row tbl columns values =
  let schema = Table.schema tbl in
  match columns with
  | None ->
    if List.length values <> Schema.arity schema then
      Errors.raise_error
        (Errors.Arity_error
           {
             table = Table.name tbl;
             expected = Schema.arity schema;
             got = List.length values;
           });
    Array.of_list values
  | Some cols ->
    if List.length cols <> List.length values then
      Errors.semantic "column list and value list have different lengths";
    let row =
      Array.map
        (fun c -> match c.Schema.default with Some v -> v | None -> Value.Null)
        schema.Schema.columns
    in
    List.iter2 (fun col v -> row.(Schema.column_index schema col) <- v) cols values;
    row

(* Apply an operation's identified changes.  Each operation first
   identifies its tuples against the state at its start, then changes
   them. *)
let inserted db tbl rows =
  let db, handles =
    List.fold_left
      (fun (db, hs) row ->
        let db, h = Database.insert db (Table.name tbl) row in
        (db, h :: hs))
      (db, []) rows
  in
  { db; affected = A_insert (List.rev handles); result = None }

let deleted db victims =
  let db = List.fold_left (fun db (h, _) -> Database.delete db h) db victims in
  { db; affected = A_delete victims; result = None }

let updated db set_cols updates =
  let db =
    List.fold_left (fun db (h, _, new_row) -> Database.update db h new_row) db
      updates
  in
  {
    db;
    affected = A_update (List.map (fun (h, old, _) -> (h, set_cols, old)) updates);
    result = None;
  }

(* ------------------------------------------------------------------ *)
(* The reference path: an operation run by the planner-free reference
   evaluator, victims found by a full scan.  The compiled path below is
   the executor; this one runs the reference engine of the differential
   tests and the operations the compiler cannot resolve against the
   catalog, reproducing the reference evaluator's error exactly. *)

let exec_insert resolve db table columns source =
  let tbl = Database.table db table in
  let rows =
    match source with
    | `Values exprss ->
      List.map
        (fun exprs ->
          position_row tbl columns (List.map (Eval.eval_expr_in resolve []) exprs))
        exprss
    | `Select s ->
      let rel = Eval.eval_select resolve s in
      List.map (fun row -> position_row tbl columns (Array.to_list row)) rel.Eval.rows
  in
  inserted db tbl rows

(* Victim selection: the rows of [tbl] satisfying [where], in handle
   order. *)
let selected_handles resolve tbl where =
  let keep row =
    match where with
    | None -> true
    | Some pred -> Eval.eval_predicate resolve (row_env tbl row) pred
  in
  Table.fold (fun h row acc -> if keep row then (h, row) :: acc else acc) tbl []
  |> List.rev

let exec_delete resolve db table where =
  deleted db (selected_handles resolve (Database.table db table) where)

let exec_update resolve db table sets where =
  let tbl = Database.table db table in
  let schema = Table.schema tbl in
  let set_cols = List.map fst sets in
  List.iter (fun c -> ignore (Schema.column_index schema c)) set_cols;
  let victims = selected_handles resolve tbl where in
  let updates =
    List.map
      (fun (h, old_row) ->
        let env = row_env tbl old_row in
        let new_row = Array.copy old_row in
        List.iter
          (fun (col, e) ->
            new_row.(Schema.column_index schema col) <-
              Eval.eval_expr_in resolve env e)
          sets;
        (h, old_row, new_row))
      victims
  in
  updated db set_cols updates

(* Which columns of base table [name] a select references; used for the
   column granularity of the Section 5.1 read set.  Falls back to all
   columns when the reference is unqualified or ambiguous. *)
let referenced_columns (s : Ast.select) schema binding_name =
  let all = Schema.column_names schema in
  let cols = ref [] in
  let add c = if not (List.exists (String.equal c) !cols) then cols := c :: !cols in
  let saw_unqualified_match = ref false in
  let rec walk_expr = function
    | Ast.Lit _ | Ast.Param _ -> ()
    | Ast.Col { qualifier = Some q; column } ->
      if String.equal q binding_name && Schema.has_column schema column then
        add column
    | Ast.Col { qualifier = None; column } ->
      if Schema.has_column schema column then begin
        saw_unqualified_match := true;
        add column
      end
    | Ast.Binop (_, a, b)
    | Ast.Cmp (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Like (a, b) ->
      walk_expr a;
      walk_expr b
    | Ast.Neg a | Ast.Not a | Ast.Is_null a | Ast.Is_not_null a -> walk_expr a
    | Ast.In_list (a, es) | Ast.Not_in_list (a, es) ->
      walk_expr a;
      List.iter walk_expr es
    | Ast.In_select (a, sub) | Ast.Not_in_select (a, sub) ->
      walk_expr a;
      walk_select sub
    | Ast.Exists sub | Ast.Scalar_select sub -> walk_select sub
    | Ast.Between (a, b, c) ->
      walk_expr a;
      walk_expr b;
      walk_expr c
    | Ast.Agg (_, Some a) -> walk_expr a
    | Ast.Agg (_, None) -> ()
    | Ast.Fn (_, args) -> List.iter walk_expr args
    | Ast.Case (branches, else_) ->
      List.iter
        (fun (c, v) ->
          walk_expr c;
          walk_expr v)
        branches;
      Option.iter walk_expr else_
  and walk_select (sub : Ast.select) =
    List.iter
      (function
        | Ast.Star -> cols := List.rev all
        | Ast.Table_star t -> if String.equal t binding_name then cols := List.rev all
        | Ast.Proj (e, _) -> walk_expr e)
      sub.Ast.projections;
    Option.iter walk_expr sub.Ast.where;
    List.iter walk_expr sub.Ast.group_by;
    Option.iter walk_expr sub.Ast.having;
    List.iter (fun (e, _) -> walk_expr e) sub.Ast.order_by
  in
  walk_select s;
  if !cols = [] || !saw_unqualified_match then
    (* be conservative when attribution is unclear *)
    if !cols = [] then all else List.rev !cols
  else List.rev !cols

(* Read-set tracking for select operations.  For a single-table select
   the tracked tuples are exactly those satisfying the predicate; for
   multi-table selects we conservatively track every tuple of each base
   table referenced in the top-level FROM (documented substitution —
   the paper leaves this granularity open).

   This is the reference statement of the rule: it rescans the table
   through the reference evaluator, and a row whose predicate raises
   counts as read.  The compiled path ([read_plan] below) computes the
   same set from the compiled pass; this function serves the reference
   path and is the differential tests' oracle. *)
let select_read_set resolve db (s : Ast.select) =
  let base_items =
    List.filter_map
      (fun item ->
        match item.Ast.source with
        | Ast.Base t -> Some (t, item.Ast.alias)
        | Ast.Transition _ | Ast.Derived _ -> None)
      s.Ast.from
  in
  match base_items with
  | [ (t, alias) ] when s.Ast.group_by = [] ->
    let tbl = Database.table db t in
    let binding = Option.value alias ~default:t in
    let cols = referenced_columns s (Table.schema tbl) binding in
    let rows =
      Table.fold
        (fun h row acc ->
          let env =
            [
              [
                {
                  Eval.bind_name = binding;
                  bind_cols = Table.col_names tbl;
                  bind_row = row;
                };
              ];
            ]
          in
          let keep =
            match s.Ast.where with
            | None -> true
            | Some pred -> (
              try Eval.eval_predicate resolve env pred with _ -> true)
          in
          if keep then (h, cols) :: acc else acc)
        tbl []
    in
    List.rev rows
  | items ->
    List.concat_map
      (fun (t, alias) ->
        let tbl = Database.table db t in
        let binding = Option.value alias ~default:t in
        let cols = referenced_columns s (Table.schema tbl) binding in
        List.map (fun (h, _) -> (h, cols)) (Table.to_list tbl))
      items

(* ------------------------------------------------------------------ *)
(* Compiled operations.

   An operation is lowered once — the WHERE predicate, SET expressions
   and embedded selects become positional closures, and the
   victim-selection probe decision is made statically — and then run.
   The rules engine caches the compiled form of each rule's action
   block across firings (keyed on a DDL generation counter), so
   cascades re-enter closures instead of re-walking the AST.

   Compilation is total: an operation the compiler cannot resolve
   against the catalog (unknown victim table, unknown SET column)
   compiles to [C_fallback], which runs the reference path above and
   so raises the reference evaluator's error at its point of raising.
   A reference engine ([reference_op]) runs every operation that
   way. *)

type cop =
  | C_insert of {
      table : string;
      columns : string list option;
      csource :
        [ `Values of Compile.cexpr list list | `Select of Compile.cselect ];
      nslots : int;
    }
  | C_delete of {
      table : string;
      cwhere : Compile.cexpr option;
      cprobe : Compile.cprobe option;
      nslots : int;
    }
  | C_update of {
      table : string;
      csets : (int * Compile.cexpr) list; (* schema position, value *)
      set_cols : string list;
      cwhere : Compile.cexpr option;
      cprobe : Compile.cprobe option;
      nslots : int;
    }
  | C_select of { csel : Compile.cselect; read : read_plan; nslots : int }
  | C_fallback of Ast.op

(* The Section 5.1 read set of a compiled select, planned with it: the
   same rule as [select_read_set], with the referenced columns computed
   once. *)
and read_plan =
  | R_rows of {
      table : string;
      binding : string;
      cols : string list;
      where : Ast.expr option;
    }  (** one base table in the top-level FROM, no GROUP BY: the rows
           whose WHERE holds, or raises *)
  | R_all of (string * string list) list
      (** every row of each top-level base table *)

(* Whether [where] can raise on some row of [schema] bound as
   [binding] — a row an index probe skipped still counts as read when
   its predicate raises.  Conservative: only comparisons, BETWEEN, IN
   lists, LIKE and the logical connectives over literals, parameters
   and columns of statically compatible types pass; arithmetic,
   functions, CASE and subqueries are assumed to raise. *)
let where_may_raise schema binding params where =
  let exception Raises in
  let of_value = function
    | Value.Null -> `Null
    | Value.Int _ | Value.Float _ -> `Num
    | Value.Str _ -> `Str
    | Value.Bool _ -> `Bool
  in
  let rec ty (e : Ast.expr) =
    match e with
    | Ast.Lit v -> of_value v
    | Ast.Param i ->
      if i < Array.length params then of_value params.(i) else raise Raises
    | Ast.Col { qualifier; column } -> (
      (match qualifier with
      | Some q when not (String.equal q binding) -> raise Raises
      | _ -> ());
      match Schema.find_column schema column with
      | None -> raise Raises
      | Some i -> (
        match schema.Schema.columns.(i).Schema.col_type with
        | Schema.T_int | Schema.T_float -> `Num
        | Schema.T_string -> `Str
        | Schema.T_bool -> `Bool))
    | Ast.Cmp (_, a, b) ->
      comparable a b;
      `Bool
    | Ast.Between (a, lo, hi) ->
      comparable a lo;
      comparable a hi;
      `Bool
    | Ast.In_list (a, es) | Ast.Not_in_list (a, es) ->
      List.iter (comparable a) es;
      `Bool
    | Ast.And (a, b) | Ast.Or (a, b) ->
      truth a;
      truth b;
      `Bool
    | Ast.Not a ->
      truth a;
      `Bool
    | Ast.Is_null a | Ast.Is_not_null a ->
      ignore (ty a);
      `Bool
    | Ast.Like (a, p) -> (
      match (ty a, ty p) with
      | (`Str | `Null), (`Str | `Null) -> `Bool
      | _ -> raise Raises)
    | _ -> raise Raises
  and comparable a b =
    match (ty a, ty b) with
    | `Null, _ | _, `Null -> ()
    | x, y -> if x <> y then raise Raises
  and truth a = match ty a with `Bool | `Null -> () | _ -> raise Raises in
  match where with
  | None -> false
  | Some w -> ( try ignore (ty w); false with Raises -> true)

let compile_read_plan db (s : Ast.select) =
  let base_items =
    List.filter_map
      (fun item ->
        match item.Ast.source with
        | Ast.Base t -> Some (t, Option.value item.Ast.alias ~default:t)
        | Ast.Transition _ | Ast.Derived _ -> None)
      s.Ast.from
  in
  if not (List.for_all (fun (t, _) -> Database.has_table db t) base_items) then
    (* the select raises resolving the unknown table before any read
       set is needed *)
    R_all []
  else
    let cols_of t binding = referenced_columns s (Database.schema db t) binding in
    match base_items with
    | [ (table, binding) ] when s.Ast.group_by = [] ->
      R_rows { table; binding; cols = cols_of table binding; where = s.Ast.where }
    | items -> R_all (List.map (fun (t, b) -> (t, cols_of t b)) items)

(* The rows of [tbl] whose WHERE, compiled with only the table bound
   as [binding], holds or raises: the read-set rule as a compiled full
   scan.  Compiled on demand — the select's own pass usually yields the
   read set — against the catalog the select was compiled for.  Its
   runtime carries no access hooks, so it notes no scans or probes. *)
let all_handles tbl = List.rev (Table.fold (fun h _ acc -> h :: acc) tbl [])

let scan_read_set ?params resolve db tbl binding where =
  match where with
  | None -> all_handles tbl
  | Some w ->
    let ctx = Compile.make db in
    let ce = Compile.compile_expr ctx ~shape:[ [ (binding, Table.col_names tbl) ] ] w in
    let rt =
      Compile.make_rt ?params ~use_cache:true ~slots:(Compile.slot_count ctx) ~db resolve
    in
    Table.fold
      (fun h row acc ->
        match Compile.cexpr_holds rt ce [| [| row |] |] with
        | false -> acc
        | true | (exception _) -> h :: acc)
      tbl []
    |> List.rev

let compile_op db (op : Ast.op) : cop =
  match op with
  | Ast.Insert { table; columns; source } ->
    (* the reference path resolves the target table before evaluating the
       source; compilation of the source needs no catalog knowledge
       (VALUES expressions see an empty environment), so the unknown-
       table error stays a run-time one *)
    let ctx = Compile.make db in
    let csource =
      match source with
      | `Values exprss ->
        `Values
          (List.map
             (List.map (fun e -> Compile.compile_expr ctx ~shape:[] e))
             exprss)
      | `Select s -> `Select (Compile.compile_select ctx s)
    in
    C_insert { table; columns; csource; nslots = Compile.slot_count ctx }
  | Ast.Delete { table; where } ->
    if not (Database.has_table db table) then C_fallback op
    else begin
      let ctx = Compile.make db in
      let cols = Table.col_names (Database.table db table) in
      let frame = [ (table, cols) ] in
      let cwhere =
        Option.map (Compile.compile_expr ctx ~shape:[ frame ]) where
      in
      let cprobe = Compile.compile_probe ctx ~frame ~target:table ~table where in
      C_delete { table; cwhere; cprobe; nslots = Compile.slot_count ctx }
    end
  | Ast.Update { table; sets; where } ->
    if not (Database.has_table db table) then C_fallback op
    else begin
      let schema = Database.schema db table in
      if
        not
          (List.for_all (fun (c, _) -> Schema.has_column schema c) sets)
      then
        (* unknown SET column: the reference path raises the exact
           error at the exact point (after resolving the table, before
           victim selection) *)
        C_fallback op
      else begin
        let ctx = Compile.make db in
        let cols = Table.col_names (Database.table db table) in
        let frame = [ (table, cols) ] in
        let csets =
          List.map
            (fun (c, e) ->
              ( Schema.column_index schema c,
                Compile.compile_expr ctx ~shape:[ frame ] e ))
            sets
        in
        let cwhere =
          Option.map (Compile.compile_expr ctx ~shape:[ frame ]) where
        in
        let cprobe =
          Compile.compile_probe ctx ~frame ~target:table ~table where
        in
        C_update
          {
            table;
            csets;
            set_cols = List.map fst sets;
            cwhere;
            cprobe;
            nslots = Compile.slot_count ctx;
          }
      end
    end
  | Ast.Select_op s ->
    let ctx = Compile.make db in
    let csel = Compile.compile_select ctx s in
    let read = compile_read_plan db s in
    C_select { csel; read; nslots = Compile.slot_count ctx }

(* Compiled victim selection: the rows of [tbl] whose compiled WHERE
   holds, in handle order.  With access-path hooks installed, the
   statically chosen probe narrows the candidates first; the full
   predicate is still applied to each candidate. *)
let selected_handles_c rt ?access tbl cwhere cprobe =
  let keep row =
    match cwhere with
    | None -> true
    | Some ce -> Compile.cexpr_holds rt ce [| [| row |] |]
  in
  let scan () =
    Table.fold (fun h row acc -> if keep row then (h, row) :: acc else acc) tbl []
    |> List.rev
  in
  match access with
  | None -> scan ()
  | Some access -> (
    let name = Table.name tbl in
    match
      match cprobe with
      | None -> None
      | Some cp -> Compile.run_probe rt access cp
    with
    | Some hit ->
      access.Plan.acc_note ~table:name
        (match hit.Plan.ph_kind with
        | `Eq -> `Index_probe
        | `Range -> `Range_probe);
      List.filter (fun (_, row) -> keep row) hit.Plan.ph_pairs
    | None ->
      access.Plan.acc_note ~table:name `Seq_scan;
      scan ())

let run_cop ~track_selects ~optimize ?access ?params resolve db (cop : cop) :
    op_result =
  let rt nslots =
    Compile.make_rt ?access ?params ~use_cache:optimize ~slots:nslots ~db resolve
  in
  match cop with
  | C_fallback op -> (
    (* the reference evaluator binds EXECUTE arguments by substitution *)
    let op =
      match params with
      | None | Some [||] -> op
      | Some args -> Ast.subst_params_op args op
    in
    match op with
    | Ast.Insert { table; columns; source } ->
      exec_insert resolve db table columns source
    | Ast.Delete { table; where } -> exec_delete resolve db table where
    | Ast.Update { table; sets; where } -> exec_update resolve db table sets where
    | Ast.Select_op s ->
      let rel = Eval.eval_select resolve s in
      let read = if track_selects then select_read_set resolve db s else [] in
      { db; affected = A_select read; result = Some rel })
  | C_insert { table; columns; csource; nslots } ->
    let tbl = Database.table db table in
    let rt = rt nslots in
    let rows =
      match csource with
      | `Values cexprss ->
        List.map
          (fun cexprs ->
            position_row tbl columns
              (List.map (fun ce -> Compile.eval_cexpr rt ce [||]) cexprs))
          cexprss
      | `Select cs ->
        (* same fault site as the reference path's embedded eval_select *)
        Fault.hit Fault.Query_eval;
        let rel = Compile.run_select rt cs in
        List.map (fun row -> position_row tbl columns (Array.to_list row)) rel.Eval.rows
    in
    inserted db tbl rows
  | C_delete { table; cwhere; cprobe; nslots } ->
    let tbl = Database.table db table in
    deleted db (selected_handles_c (rt nslots) ?access tbl cwhere cprobe)
  | C_update { table; csets; set_cols; cwhere; cprobe; nslots } ->
    let tbl = Database.table db table in
    let rt = rt nslots in
    let victims = selected_handles_c rt ?access tbl cwhere cprobe in
    let updates =
      List.map
        (fun (h, old_row) ->
          let env = [| [| old_row |] |] in
          let new_row = Array.copy old_row in
          List.iter
            (fun (ix, ce) -> new_row.(ix) <- Compile.eval_cexpr rt ce env)
            csets;
          (h, old_row, new_row))
        victims
    in
    updated db set_cols updates
  | C_select { csel; read; nslots } ->
    Fault.hit Fault.Query_eval;
    let rt = rt nslots in
    if not track_selects then
      { db; affected = A_select []; result = Some (Compile.run_select rt csel) }
    else
      let rel, read =
        match read with
        | R_rows { table; binding; cols; where } ->
          let tbl = Database.table db table in
          let scan () = scan_read_set ?params resolve db tbl binding where in
          let rel, handles =
            match Compile.run_select_tracked rt csel with
            | Some (rel, held, probed) ->
              (* the select's own pass evaluated the WHERE on every row
                 it did not skip; a skipped row counts only if its
                 WHERE can raise, and then a full scan decides *)
              let params = Option.value params ~default:[||] in
              ( rel,
                if probed && where_may_raise (Table.schema tbl) binding params where
                then scan ()
                else held )
            | None -> (Compile.run_select rt csel, scan ())
          in
          (rel, List.map (fun h -> (h, cols)) handles)
        | R_all items ->
          let rel = Compile.run_select rt csel in
          ( rel,
            List.concat_map
              (fun (t, cols) ->
                List.map (fun h -> (h, cols)) (all_handles (Database.table db t)))
              items )
      in
      { db; affected = A_select read; result = Some rel }

let exec_cop ?(track_selects = false) ?(optimize = true) ?access ?params
    resolve db cop : op_result =
  (* exception-safety injection site: an operation may fail before
     touching the database, and the caller must treat the containing
     block as indivisible either way *)
  Fault.hit Fault.Dml_op;
  run_cop ~track_selects ~optimize ?access ?params resolve db cop

let exec_op ?track_selects ?optimize ?access resolve db (op : Ast.op) :
    op_result =
  exec_cop ?track_selects ?optimize ?access resolve db (compile_op db op)

let reference_op op = C_fallback op
