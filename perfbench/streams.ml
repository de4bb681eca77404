(* The benchmark's inputs, generated from the seed: the scenario corpus
   stream shared by corpus-embedded and corpus-durable, and the kv-mixed
   request stream.  The program under test only ever sees the SQL text
   produced here. *)

open Core
module Scenario = Workload.Scenario
module Profile = Workload.Profile
module Sampler = Profile.Sampler

(* The wire protocol is line-oriented. *)
let oneline s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let starts_with prefix s =
  let s = String.trim s in
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* The scenario corpus                                                 *)

(* E17's profile: Zipf 0.75 over 64 keys, 1-4 operations per block,
   25% reads, no padding rules. *)
let corpus_profile ~seed =
  {
    Profile.seed;
    txns = 1;
    min_ops = 1;
    max_ops = 4;
    read_frac = 0.25;
    keys = 64;
    theta = 0.75;
    rule_density = 0;
  }

(* Union of the scenarios' engine configurations (audit-trail needs
   select tracking; it also makes the server serializable). *)
let corpus_config = { Engine.default_config with Engine.track_selects = true }

type corpus = {
  scenarios : Scenario.t array;
  samplers : Sampler.t array;
  pick : Random.State.t;  (** the seeded shuffle merging the streams *)
}

let scenarios () =
  Workload.Scenarios.register_all ();
  Array.of_list (Scenario.all ())

let scenario_seed ~seed i = (seed * 16) + i + 1

let corpus ~seed =
  let scenarios = scenarios () in
  {
    scenarios;
    samplers =
      Array.mapi
        (fun i _ -> Sampler.create (corpus_profile ~seed:(scenario_seed ~seed i)))
        scenarios;
    pick = Random.State.make [| seed; 0xc0 |];
  }

let next_block c =
  let i = Random.State.int c.pick (Array.length c.scenarios) in
  oneline (c.scenarios.(i).Scenario.sc_txn c.samplers.(i))

(* The next [n] blocks of the merged stream. *)
let take c n = Array.init n (fun _ -> next_block c)

(* Every scenario's DDL, rules and seed rows, one statement each, side
   by side in one database (table and rule names are disjoint). *)
let corpus_setup ~seed =
  List.concat
    (List.mapi
       (fun i sc ->
         List.map oneline
           (Workload.Runner.setup_statements sc
              (corpus_profile ~seed:(scenario_seed ~seed i))))
       (Array.to_list (scenarios ())))

let corpus_tables () =
  List.concat_map (fun sc -> sc.Scenario.sc_tables) (Array.to_list (scenarios ()))

(* A block is a read request when every statement in it is a select;
   anything else is a transaction request. *)
let is_read_block b =
  List.for_all
    (fun s -> String.trim s = "" || starts_with "select" s)
    (String.split_on_char ';' b)

let txn_text b = "begin; " ^ b ^ "; commit"

(* ------------------------------------------------------------------ *)
(* kv-mixed                                                            *)

let kv_rows = 100_000
let kv_batch = 1000

let kv_value ~seed id = Hashtbl.hash (seed, id) mod 1000

(* Rule-free: no primary key, which would compile into constraint
   rules; the index serves the point reads and updates. *)
let kv_setup ~seed =
  [ "create table kv (id int, v int)"; "create index kv_id on kv (id)" ]
  @ List.init (kv_rows / kv_batch) (fun b ->
        "insert into kv values "
        ^ String.concat ", "
            (List.init kv_batch (fun j ->
                 let id = (b * kv_batch) + j in
                 Printf.sprintf "(%d, %d)" id (kv_value ~seed id))))

let kv_seed_sum ~seed =
  let s = ref 0 in
  for id = 0 to kv_rows - 1 do
    s := !s + kv_value ~seed id
  done;
  !s

let kv_prepare =
  [
    "prepare rd as select v from kv where id = ?";
    "prepare up as update kv set v = v + 1 where id = ?";
  ]

type kv_req = Read of int | Write of int

let kv_sampler ~seed ~session =
  Sampler.create
    {
      Profile.default with
      Profile.seed = (seed * 16) + session + 1;
      keys = kv_rows;
      theta = 0.99;
      read_frac = 0.9;
    }

let kv_next s = if Sampler.is_read s then Read (Sampler.key s) else Write (Sampler.key s)

let kv_text = function
  | Read k -> Printf.sprintf "execute rd(%d)" k
  | Write k -> Printf.sprintf "begin; execute up(%d); commit" k

(* ------------------------------------------------------------------ *)
(* State digests                                                       *)

(* A table's canonical form: the lines of its rendered [select *],
   sorted.  The server renders responses with the same function, so a
   digest taken over the wire compares with one taken in process. *)
let canonical rendered =
  String.concat "\n" (List.sort compare (String.split_on_char '\n' rendered))

let table_query t = "select * from " ^ t

let digest_of_system sys tables =
  List.map
    (fun t ->
      match System.exec sys (table_query t) with
      | [ r ] -> (t, canonical (System.render_result r))
      | _ -> (t, "<no result>"))
    tables
