(* User-declared rule ordering (paper Section 4.4).

   "create rule priority R1 before R2" declares that R1 has higher
   priority than R2.  Any acyclic set of such pairs induces a partial
   order; a rule is eligible for selection only if no other *triggered*
   rule is strictly higher.  Adding a pair that would create a cycle is
   rejected with the offending cycle. *)

open Relational
module Str_map = Map.Make (String)
module Str_set = Set.Make (String)

type t = { before : Str_set.t Str_map.t (* rule -> rules it precedes *) }

let empty = { before = Str_map.empty }

let successors t name =
  Option.value (Str_map.find_opt name t.before) ~default:Str_set.empty

(* Step counter of the most recent [find_path] search (one step per
   node expansion).  Exposed so the regression tests can bound the
   search cost structurally instead of by wall time. *)
let search_steps = ref 0

(* Path from [src] to [dst] following the before-relation, if any;
   used both for cycle detection and for reporting the cycle.

   The visited set is threaded through the fold — each node is expanded
   at most once across the whole search.  Copying the set into each
   branch instead would re-explore shared suffixes, making diamond-
   shaped DAGs exponential. *)
let find_path t src dst =
  search_steps := 0;
  let rec dfs visited path node =
    incr search_steps;
    if String.equal node dst then (visited, Some (List.rev (node :: path)))
    else if Str_set.mem node visited then (visited, None)
    else
      let visited = Str_set.add node visited in
      Str_set.fold
        (fun next (visited, found) ->
          match found with
          | Some _ -> (visited, found)
          | None -> dfs visited (node :: path) next)
        (successors t node) (visited, None)
  in
  snd (dfs Str_set.empty [] src)

let declare t ~high ~low =
  if String.equal high low then
    Errors.raise_error (Errors.Priority_cycle [ high; low ]);
  (match find_path t low high with
  | Some path -> Errors.raise_error (Errors.Priority_cycle (path @ [ low ]))
  | None -> ());
  let succ = Str_set.add low (successors t high) in
  { before = Str_map.add high succ t.before }

(* Is [a] strictly higher-priority than [b] (transitively)?  A rule
   that precedes nothing — every rule, when no priorities are declared —
   needs no search; rule selection asks this of every candidate pair. *)
let higher t a b =
  if String.equal a b || not (Str_map.mem a t.before) then false
  else Option.is_some (find_path t a b)

let pairs t =
  Str_map.fold
    (fun high lows acc ->
      Str_set.fold (fun low acc -> (high, low) :: acc) lows acc)
    t.before []
  |> List.rev

(* Drop every pair mentioning [name]; used when a rule is dropped. *)
let remove_rule t name =
  let before =
    Str_map.filter_map
      (fun high lows ->
        if String.equal high name then None
        else
          let lows = Str_set.remove name lows in
          if Str_set.is_empty lows then None else Some lows)
      t.before
  in
  { before }
