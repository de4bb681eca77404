(* The access-path planner's shared pieces: the hooks through which
   the executor reaches indexes and statistics, the planner switches,
   the cost model and candidate ranking, the sargability analysis, and
   the EXPLAIN plan nodes.  Only the compiling executor ([Compile]) and
   its callers plan; the reference evaluator ([Eval]) never does. *)

open Relational

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)

(* Access-path hooks.  When a caller supplies them, base tables in a
   from-list are realized lazily, giving the planner a chance to
   satisfy a sargable equality/IN conjunct of the WHERE clause by an
   index probe instead of a scan.  [acc_cols] names a base table's
   columns without materializing its rows (None: unknown table, forcing
   the eager path); [acc_probe] probes any index over the column (None:
   no usable index); [acc_note] reports every scan-vs-probe decision
   for EXPLAIN-style statistics. *)
type access = {
  acc_cols : table:string -> string array option;
  acc_probe :
    table:string ->
    column:string ->
    Value.t list ->
    (Handle.t * Row.t) list option;
  acc_range :
    table:string ->
    column:string ->
    lower:(Value.t * bool) option ->
    upper:(Value.t * bool) option ->
    (Handle.t * Row.t) list option;
  acc_note :
    table:string ->
    [ `Seq_scan | `Index_probe | `Range_probe | `Hash_join_build
    | `Hash_join_probe ] ->
    unit;
  acc_index : table:string -> column:string -> string option;
  acc_count : table:string -> int option;
  acc_stats : table:string -> column:string -> (int * bool) option;
}

(* Hash equi-joins in the from-list; mutable only so the ablation
   benchmark can compare against pure nested loops. *)
let join_optimization = ref true

(* Equality-predicate pushdown into index probes; mutable only so the
   differential harness and the ablation benchmark can compare against
   pure scans. *)
let predicate_pushdown = ref true

(* Cost-based access-path selection.  When on, the planner ranks every
   sargable conjunct — equality, IN, range comparison, BETWEEN,
   prefix LIKE — by estimated enumerated rows from the maintained table
   statistics and takes the cheapest.  When off, it degrades to the
   historical first-equality-match rule (no range probes), which the
   differential tests exercise next to the cost model. *)
let cost_model = ref true

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

(* The shape of a sargable conjunct, as much of it as is known without
   evaluating the value side: the key count of an equality/IN probe
   ([None] for IN (select ...)), a range, or a LIKE prefix range. *)
type probe_shape = Shape_eq of int option | Shape_range | Shape_prefix

(* Estimated rows a probe of [shape] over [column] would enumerate,
   from the incrementally-maintained statistics: row count and
   per-indexed-column distinct key count.  [None] = no usable index
   (no index at all, or a range shape without an ordered index).
   Selectivity of ranges is guessed at 1/3 (1/4 for prefixes) in the
   System R tradition — no histograms are kept. *)
let estimate_shape access ~table ~column shape =
  match access.acc_stats ~table ~column with
  | None -> None
  | Some (distinct, ordered) -> (
    let nrows = Option.value (access.acc_count ~table) ~default:0 in
    match shape with
    | Shape_eq k ->
      let k = Option.value k ~default:2 in
      Some (k * nrows / max 1 distinct)
    | Shape_range -> if ordered then Some ((nrows + 2) / 3) else None
    | Shape_prefix -> if ordered then Some ((nrows + 3) / 4) else None)

(* The single decision procedure shared by execution and EXPLAIN:
   given the sargable candidates of a WHERE clause in conjunct order,
   return the ones worth attempting, cheapest first, with their
   estimates.  The
   caller tries them in order and falls back to the scan when none
   probes successfully (no index after all, type-incompatible values,
   value evaluation error).

   With the cost model off this is the historical planner: equality
   candidates only, in conjunct order, no estimates. *)
let choose_candidates access ~table cands =
  if not !cost_model then
    List.filter_map
      (fun (payload, _column, shape) ->
        match shape with
        | Shape_eq _ -> Some (payload, None)
        | Shape_range | Shape_prefix -> None)
      cands
  else
    let scan_cost = access.acc_count ~table in
    List.filter_map
      (fun (payload, column, shape) ->
        match estimate_shape access ~table ~column shape with
        | None -> None
        | Some est -> (
          (* a probe never enumerates more rows than the scan, but when
             the estimate says it would not help, keep the plan honest
             and scan *)
          match scan_cost with
          | Some n when est > n -> None
          | Some _ | None -> Some ((payload, Some est), est)))
      cands
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
    |> List.map fst

(* A successful probe decision: which column and WHERE conjunct
   satisfied it, by equality or range probe, the estimate that ranked
   it ([None] under the legacy planner), and the rows it enumerates. *)
type probe_hit = {
  ph_column : string;
  ph_conjunct : Ast.expr;
  ph_kind : [ `Eq | `Range ];
  ph_est : int option;
  ph_pairs : (Handle.t * Row.t) list;
}

(* Split a predicate into its top-level AND conjuncts. *)
let rec conjuncts e =
  match e with Ast.And (a, b) -> conjuncts a @ conjuncts b | e -> [ e ]

(* Conservative independence test used by the access-path planner: may
   an expression reference a column of the frame being built — the
   [target] sources of the FROM list under construction?  Probe values
   must be evaluable once against the outer scopes alone, so only an
   expression that provably cannot touch the target frame qualifies:
   every column reference must resolve either inside a subquery's own
   scopes (innermost-first, shadowing the target) or past the target in
   the outer scopes.  Anything unknowable — derived or transition
   sources whose columns we cannot name, possible ambiguity — answers
   "maybe", rejecting the probe; the scan path then behaves exactly as
   before.

   [cols_of] names a base table's columns (for subquery FROM items);
   inner frames track [(name option, cols option)] where [None] means
   unknown.  A derived FROM item inside a subquery is walked against
   the scopes *outside* that subquery, because that is the environment
   it evaluates in. *)
let independence ~(target : (string * string array) list)
    ~(cols_of : string -> string array option) =
  let target_has_name q = List.exists (fun (n, _) -> String.equal n q) target in
  let target_has_col c =
    List.exists (fun (_, cols) -> Array.exists (String.equal c) cols) target
  in
  let rec expr inners (e : Ast.expr) =
    match e with
    | Ast.Lit _ -> true
    | Ast.Param _ -> true (* a bound parameter is a constant *)
    | Ast.Col { qualifier = Some q; _ } ->
      let resolves_inner =
        List.exists
          (List.exists (fun (n, _) ->
               match n with Some n -> String.equal n q | None -> false))
          inners
      in
      resolves_inner || not (target_has_name q)
    | Ast.Col { qualifier = None; column = c } ->
      let definitely_inner =
        List.exists
          (List.exists (fun (_, cols) ->
               match cols with
               | Some arr -> Array.exists (String.equal c) arr
               | None -> false))
          inners
      in
      (* a source with unknown columns might capture [c] — but it might
         not, so we cannot rule out fall-through to the target *)
      definitely_inner || not (target_has_col c)
    | Ast.Binop (_, a, b)
    | Ast.Cmp (_, a, b)
    | Ast.And (a, b)
    | Ast.Or (a, b)
    | Ast.Like (a, b) -> expr inners a && expr inners b
    | Ast.Neg a | Ast.Not a | Ast.Is_null a | Ast.Is_not_null a ->
      expr inners a
    | Ast.In_list (a, es) | Ast.Not_in_list (a, es) ->
      expr inners a && List.for_all (expr inners) es
    | Ast.In_select (a, s) | Ast.Not_in_select (a, s) ->
      expr inners a && sel inners s
    | Ast.Exists s | Ast.Scalar_select s -> sel inners s
    | Ast.Between (a, b, c) -> expr inners a && expr inners b && expr inners c
    | Ast.Agg (_, arg) -> Option.fold ~none:true ~some:(expr inners) arg
    | Ast.Fn (_, args) -> List.for_all (expr inners) args
    | Ast.Case (branches, else_) ->
      List.for_all (fun (c, v) -> expr inners c && expr inners v) branches
      && Option.fold ~none:true ~some:(expr inners) else_
  and sel inners (s : Ast.select) =
    (* derived FROM items evaluate against the scopes outside this
       select, so they are walked with the enclosing stack *)
    let derived_ok =
      List.for_all
        (fun item ->
          match item.Ast.source with
          | Ast.Derived sub -> sel inners sub
          | Ast.Base _ | Ast.Transition _ -> true)
        s.Ast.from
    in
    let frame =
      List.map
        (fun item ->
          let name, cols =
            match item.Ast.source with
            | Ast.Base n -> (Some n, cols_of n)
            | Ast.Transition _ | Ast.Derived _ -> (None, None)
          in
          match item.Ast.alias with
          | Some a -> (Some a, cols)
          | None -> (name, cols))
        s.Ast.from
    in
    let inners' = frame :: inners in
    derived_ok
    && List.for_all
         (function
           | Ast.Star | Ast.Table_star _ -> true
           | Ast.Proj (e, _) -> expr inners' e)
         s.Ast.projections
    && Option.fold ~none:true ~some:(expr inners') s.Ast.where
    && List.for_all (expr inners') s.Ast.group_by
    && Option.fold ~none:true ~some:(expr inners') s.Ast.having
    && List.for_all (fun (e, _) -> expr inners' e) s.Ast.order_by
    && List.for_all (fun (_, sub) -> sel inners sub) s.Ast.compounds
  in
  (expr [], sel [])

(* ------------------------------------------------------------------ *)
(* EXPLAIN plan nodes                                                  *)

type access_path =
  | Seq_scan of { table : string; rows : int option }
  | Index_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int option;
      matches : int;
      rows : int option;
    }
  | Range_probe of {
      table : string;
      index : string option;
      column : string;
      conjunct : string;
      est : int option;
      matches : int;
      rows : int option;
    }
  | Materialized of { source : string; rows : int }

(* A source joined to an earlier FROM binding by a build/probe hash
   join on an equi-join conjunct (one build per statement execution,
   one probe per partial row of the frame under construction). *)
type join_plan = { jp_with : string; jp_conjunct : string }

type source_plan = {
  sp_binding : string;
  sp_path : access_path;
  sp_join : join_plan option;
}

let probed_path access ~table hit =
  let index = access.acc_index ~table ~column:hit.ph_column in
  let column = hit.ph_column in
  let conjunct = Pretty.expr_str hit.ph_conjunct in
  let est = hit.ph_est in
  let matches = List.length hit.ph_pairs in
  let rows = access.acc_count ~table in
  match hit.ph_kind with
  | `Eq -> Index_probe { table; index; column; conjunct; est; matches; rows }
  | `Range ->
    Range_probe { table; index; column; conjunct; est; matches; rows }

let describe_probe what (index, column, conjunct, est, matches, rows) =
  let ix = match index with Some i -> i | None -> "<unnamed index>" in
  let est_s =
    match est with None -> "" | Some e -> Printf.sprintf "est ~%d, " e
  in
  let total =
    match rows with Some n -> Printf.sprintf " of %d" n | None -> ""
  in
  Printf.sprintf "%s via %s on %s, conjunct %s: %s%d%s rows" what ix column
    conjunct est_s matches total

let describe_access_path = function
  | Seq_scan { table; rows } ->
    let r =
      match rows with Some n -> Printf.sprintf " (%d rows)" n | None -> ""
    in
    Printf.sprintf "seq scan of %s%s" table r
  | Index_probe { table; index; column; conjunct; est; matches; rows } ->
    describe_probe
      (Printf.sprintf "index probe of %s" table)
      (index, column, conjunct, est, matches, rows)
  | Range_probe { table; index; column; conjunct; est; matches; rows } ->
    describe_probe
      (Printf.sprintf "range probe of %s" table)
      (index, column, conjunct, est, matches, rows)
  | Materialized { source; rows } ->
    Printf.sprintf "materialized %s (%d rows)" source rows

let describe_source_plan { sp_binding; sp_path; sp_join } =
  let join =
    match sp_join with
    | None -> ""
    | Some { jp_with; jp_conjunct } ->
      Printf.sprintf ", hash join with %s on %s" jp_with jp_conjunct
  in
  Printf.sprintf "%s: %s%s" sp_binding (describe_access_path sp_path) join

