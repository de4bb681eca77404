(* sopr-bench: the load generator behind perfbench/run.py.

     sopr_bench --workload W --seed N --seconds S --trace 0|1
                --server-exe PATH --out DIR [--rev REV] [--perturb GATE]

   Workloads (see perfbench/README.md for why each exists):
     corpus-embedded  the six-scenario corpus, one caller, System.exec
     corpus-durable   the same stream over 2 sessions to an external
                      sopr-server serve --group --track-selects
     kv-mixed         90% point reads / 10% increments over 2 sessions
                      to an external sopr-server serve --nosync

   With --trace 0 the run measures the end-to-end metrics; with
   --trace 1 it drives a fixed prefix of the same stream through each
   layer's public entry points and reports the per-layer split.
   Correctness gates run before anything is printed; --perturb GATE
   deliberately corrupts what that gate checks, to show it trips.  The
   last stdout line is the result object; a full run record goes to
   DIR/records. *)

open Core
open Measure
module Server = Sopr_server.Server
module Client = Sopr_server.Client
module Durable = Durability.Durable
module Recovery = Durability.Recovery

(* ------------------------------------------------------------------ *)
(* Options                                                             *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let server_exe = ref "_build/default/bin/sopr_server.exe"
let out_dir = ref "perfbench/out"
let rev = ref "unknown"
let perturb = ref ""

let perturbed g = !perturb = g

(* The no_errors gate's perturbation: one request the program must
   refuse, in place of the stream's first. *)
let bad_request = "select * from no_such_table"

(* Sessions per server workload: two, so that on the 2-core host the
   bounds were set on the load generator never outnumbers the cores it
   shares with the server. *)
let sessions = 2

(* Requests between two reference-kernel runs (per session). *)
let chunk_blocks = 400

(* The traced run's fixed kv-mixed prefix (the corpus uses one round),
   the same on every run of a seed, so its counts repeat exactly. *)
let traced_kv_requests = 30_000
let traced_server_share = 3 (* the in-process server drives 1/3 of it *)

(* Set-ups per run (corpus-durable sets up once per round instead). *)
let setup_repeats = function "corpus-embedded" -> 25 | _ -> 5
let recovery_repeats = 5
let max_attempts = 1000

let tmp_root () = Filename.concat !out_dir "tmp"

(* Progress on stderr: phase name and seconds since start. *)
let t_begin = Unix.gettimeofday ()
let phase name = Printf.eprintf "[%7.2f s] %s\n%!" (Unix.gettimeofday () -. t_begin) name

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type gate = { g_name : string; g_ok : bool; g_detail : string }

let gate g_name g_ok g_detail = { g_name; g_ok; g_detail }

type result = {
  attempted : int;
  failed : int;
  gates : gate list;
  metrics : (string * float * string) list;
  record : (string * json) list;  (** raw figures and machine context *)
}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* "committed at version N" — the server's publish order. *)
let commit_version body =
  let marker = "committed at version " in
  let nh = String.length body and nn = String.length marker in
  let rec last i best =
    if i + nn > nh then best
    else if String.sub body i nn = marker then last (i + 1) (Some (i + nn))
    else last (i + 1) best
  in
  Option.bind (last 0 None) (fun j ->
      let k = ref j in
      while !k < nh && body.[!k] >= '0' && body.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub body j (!k - j)))

let is_conflict e = contains e "serialization failure"

let ms x = x *. 1000.
let us x = x *. 1e6

let ratio a b = if b = 0. then 0. else a /. b

(* [n] 256-byte writes, each followed by an fsync, in a scratch dir
   of the run: the disk the WAL sits on. *)
let fsync_probe n =
  let dir = Proc.scratch_dir (tmp_root ()) in
  let path = Filename.concat dir "fsync-probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = String.make 256 'x' in
  let a =
    Array.init n (fun _ ->
        let t0 = now () in
        Relational.Fileio.write_fully fd buf;
        Relational.Fileio.fsync fd;
        now () -. t0)
  in
  Unix.close fd;
  Proc.release_dir dir;
  a

let fsync_context probe =
  Obj
    [
      ("samples", Int (Array.length probe));
      ("p50_us", Num (us (percentile probe 0.5)));
      ("p90_us", Num (us (percentile probe 0.9)));
      ("p99_us", Num (us (percentile probe 0.99)));
    ]

let wal_files dir =
  List.filter
    (fun f -> String.length f > 4 && String.sub f 0 4 = "wal.")
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let wal_bytes dir =
  List.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (wal_files dir)

(* Cut the WAL in half: recovery discards the torn frame and
   everything after it, so the restored state misses committed work —
   the restore_digest gate's perturbation. *)
let tear_wal dir =
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      Unix.truncate path ((Unix.stat path).Unix.st_size / 2))
    (wal_files dir)

(* Median of repeated calibrated timings; keeps the raw figures. *)
let repeated n f =
  let runs = List.init n (fun _ -> calibrated f) in
  let values = List.map (fun (_, _, c, _) -> c) runs in
  let raws = List.map (fun (_, r, _, _) -> r) runs in
  let kernels = List.map (fun (_, _, _, k) -> k) runs in
  ( List.map (fun (v, _, _, _) -> v) runs,
    median_list values,
    Obj
      [
        ("calibrated_s", floats (Array.of_list values));
        ("raw_s", floats (Array.of_list raws));
        ("kernel_s", floats (Array.of_list kernels));
      ] )

(* ------------------------------------------------------------------ *)
(* Measured units                                                      *)

(* A run is cut into units: a round (one segment of the corpus stream
   on a freshly set-up database), or a window of [window_chunks] chunks of
   kv-mixed traffic.  The rate is the median over units, and each
   latency percentile the median over groups of at least
   [group_samples] consecutive samples (so a p99 has ten samples beyond
   it), so a host episode shorter than half the run moves no figure. *)
type unit_stats = {
  reqs : int;
  busy : float;  (** seconds, calibrated where the workload is *)
  txn : float array;
  read : float array;
}

let window_chunks = 25
let group_samples = 1000

(* Latency samples tagged with the chunk they ran in, so each can be
   scaled by its own chunk's host-speed factor. *)
type tagged = { lat : Samples.t; chunk : Samples.t }

let tagged () = { lat = Samples.create (); chunk = Samples.create () }

let tag t ~chunk x =
  Samples.add t.lat x;
  Samples.add t.chunk (float_of_int chunk)

let merge_tagged ts =
  let m = tagged () in
  List.iter
    (fun t ->
      let c = Samples.to_array t.chunk in
      Array.iteri
        (fun i x ->
          Samples.add m.lat x;
          Samples.add m.chunk c.(i))
        (Samples.to_array t.lat))
    ts;
  m

(* Complete windows of [window_chunks] calibrated chunks. *)
let windows calib ~txn ~read ~reqs_per_chunk =
  let scales = Calib.scales calib and chunks = Calib.chunks calib in
  let n = Array.length chunks / window_chunks in
  let bucket t =
    let b = Array.init n (fun _ -> Samples.create ()) in
    let l = Samples.to_array t.lat and c = Samples.to_array t.chunk in
    Array.iteri
      (fun i x ->
        let ch = int_of_float c.(i) in
        let w = ch / window_chunks in
        if w < n then Samples.add b.(w) (x *. scales.(ch)))
      l;
    b
  in
  let bt = bucket txn and br = bucket read in
  List.init n (fun w ->
      let busy = ref 0. in
      for ch = w * window_chunks to ((w + 1) * window_chunks) - 1 do
        busy := !busy +. (chunks.(ch) *. scales.(ch))
      done;
      {
        reqs = reqs_per_chunk * window_chunks;
        busy = !busy;
        txn = Samples.to_array bt.(w);
        read = Samples.to_array br.(w);
      })

let grouped_percentile arrays p =
  let groups = ref [] and cur = ref [] and size = ref 0 in
  List.iter
    (fun a ->
      cur := a :: !cur;
      size := !size + Array.length a;
      if !size >= group_samples then begin
        groups := Array.concat !cur :: !groups;
        cur := [];
        size := 0
      end)
    arrays;
  (match (!cur, !groups) with
  | [], _ -> ()
  | rest, g :: gs -> groups := Array.concat (g :: rest) :: gs
  | rest, [] -> groups := [ Array.concat rest ]);
  median_list (List.map (fun g -> percentile g p) !groups)

(* The p99s go to the run record only: on a shared 2-core VM they move
   by a quarter or more between runs of identical code (scheduling and
   fsync tails the host sets), so they cannot carry a regression bound. *)
let unit_metrics units =
  let txn = List.map (fun u -> u.txn) units and read = List.map (fun u -> u.read) units in
  [
    ( "req_per_s",
      median_list (List.map (fun u -> float_of_int u.reqs /. u.busy) units),
      "1/s" );
    ("txn_p50_ms", ms (grouped_percentile txn 0.5), "ms");
    ("txn_p90_ms", ms (grouped_percentile txn 0.9), "ms");
    ("read_p50_ms", ms (grouped_percentile read 0.5), "ms");
    ("read_p90_ms", ms (grouped_percentile read 0.9), "ms");
  ]

let units_context units =
  let total f = List.fold_left (fun a u -> a + f u) 0 units in
  let txn = List.map (fun u -> u.txn) units and read = List.map (fun u -> u.read) units in
  Obj
    [
      ("txn_p99_ms", Num (ms (grouped_percentile txn 0.99)));
      ("read_p99_ms", Num (ms (grouped_percentile read 0.99)));
      ("units", Int (List.length units));
      ("requests", Int (total (fun u -> u.reqs)));
      ("txn_samples", Int (total (fun u -> Array.length u.txn)));
      ("read_samples", Int (total (fun u -> Array.length u.read)));
      ("unit_req_per_s", floats (Array.of_list (List.map (fun u -> float_of_int u.reqs /. u.busy) units)));
    ]

let calib_context calib =
  let k = Calib.kernels calib in
  Obj
    [
      ("nominal_kernel_s", Num nominal_kernel_s);
      ("kernel_median_s", Num (median k));
      ("kernel_min_s", Num (Array.fold_left min infinity k));
      ("kernel_max_s", Num (Array.fold_left max 0. k));
      ("chunk_s", floats (Calib.chunks calib));
      ("kernel_s", floats k);
    ]

(* ------------------------------------------------------------------ *)
(* In-process corpus system                                            *)

let corpus_system () =
  let sys = System.create ~config:Streams.corpus_config () in
  List.iter (fun st -> ignore (System.exec sys st)) (Streams.corpus_setup ~seed:!seed);
  sys

type block_outcome = Committed | Rolled_back | Failed of string

let run_block sys text =
  match System.exec sys text with
  | rs -> (
    match List.rev rs with
    | System.Outcome Engine.Rolled_back :: _ -> Rolled_back
    | _ -> Committed)
  | exception Errors.Error e ->
    let eng = System.engine sys in
    if Engine.in_transaction eng then Engine.rollback_txn eng;
    Failed (Errors.to_string e)

let check_invariants sys =
  if perturbed "invariants" then begin
    (* a counter the rules maintain, bypassed *)
    ignore (System.exec sys "deactivate rule tq_track_ins");
    ignore (System.exec sys "insert into obj values (1000000, 0, 1)")
  end;
  match
    Array.iter
      (fun sc -> Workload.Runner.check_invariants sc ~context:"end of round" sys)
      (Streams.scenarios ())
  with
  | () -> None
  | exception Workload.Runner.Check_failed m -> Some m

(* Rounds take consecutive [round_blocks]-block segments of the seed's
   stream, each on a freshly set-up database: the state a round builds
   stays bounded, while a run still covers enough of the stream that
   runs on different seeds see the same mix. *)
let round_blocks = chunk_blocks * window_chunks

type segments = { gen : Streams.corpus; mutable next_round : int }

let segments () = { gen = Streams.corpus ~seed:!seed; next_round = 0 }

let next_segment sg =
  let s = Streams.take sg.gen round_blocks in
  if sg.next_round = 0 && perturbed "no_errors" then s.(0) <- bad_request;
  sg.next_round <- sg.next_round + 1;
  s

(* Segments the corpus-embedded WAL epilogue logs and recovers. *)
let epilogue_rounds = 3

(* First failure among per-round checks, as one gate. *)
let round_gate name failures ok_detail =
  match failures with
  | [] -> gate name true ok_detail
  | f :: _ -> gate name false f

(* Log the first [epilogue_rounds] segments of the stream through
   Durable (fsync off), then time
   Recovery.restore of that directory: corpus-embedded's WAL-size and
   replay figures, taken off the measured path. *)
let corpus_durable_epilogue () =
  let sg = segments () in
  let stream = Array.concat (List.init epilogue_rounds (fun _ -> next_segment sg)) in
  let dir = Proc.scratch_dir (tmp_root ()) in
  let d, _ = Durable.open_dir ~config:Streams.corpus_config ~sync:false dir in
  List.iter (fun st -> ignore (Durable.exec d st)) (Streams.corpus_setup ~seed:!seed);
  let b0 = (Durable.status d).Durable.st_wal_bytes in
  let writes = ref 0 in
  Array.iter
    (fun b ->
      match run_block (Durable.system d) (Streams.txn_text b) with
      | Committed -> if not (Streams.is_read_block b) then incr writes
      | Rolled_back | Failed _ -> ())
    stream;
  let bytes = (Durable.status d).Durable.st_wal_bytes - b0 in
  let live = Recovery.fingerprint (Durable.system d) in
  Durable.close d;
  if perturbed "restore_digest" then tear_wal dir;
  let restored, rec_s, rec_record =
    repeated recovery_repeats (fun () -> Recovery.restore ~config:Streams.corpus_config dir)
  in
  let sys, info = List.hd restored in
  let ok = Recovery.fingerprint sys = live in
  Proc.release_dir dir;
  ( float_of_int bytes /. float_of_int (max 1 !writes),
    rec_s,
    gate "restore_digest" ok
      (if ok then "restored state equals the live state"
       else "restored state differs from the live state"),
    Obj
      [
        ("write_txns", Int !writes);
        ("wal_bytes", Int bytes);
        ("records", Int info.Recovery.ri_records);
        ("recovery", rec_record);
      ] )

(* ------------------------------------------------------------------ *)
(* corpus-embedded                                                     *)

let corpus_embedded () =
  let _, setup_s, setup_record = repeated (setup_repeats !workload) corpus_system in
  let probe = fsync_probe 1000 in
  let sg = segments () in
  let calib = Calib.create () in
  let txn = tagged () and read = tagged () in
  let attempted = ref 0 and failed = ref 0 and rolled_back = ref 0 in
  let errors = ref [] and broken = ref [] in
  let deadline = now () +. !seconds in
  let chunk = ref 0 in
  while now () < deadline do
    let stream = next_segment sg in
    let sys = corpus_system () in
    for c = 0 to window_chunks - 1 do
      let t0 = now () in
      for i = c * chunk_blocks to ((c + 1) * chunk_blocks) - 1 do
        let b = stream.(i) in
        let t = now () in
        let r = run_block sys (Streams.txn_text b) in
        let dt = now () -. t in
        incr attempted;
        (match r with
        | Committed -> ()
        | Rolled_back -> incr rolled_back
        | Failed e ->
          incr failed;
          if List.length !errors < 5 then errors := e :: !errors);
        tag (if Streams.is_read_block b then read else txn) ~chunk:!chunk dt
      done;
      Calib.tick calib ~chunk_s:(now () -. t0);
      incr chunk
    done;
    Option.iter (fun m -> broken := m :: !broken) (check_invariants sys)
  done;
  let rss = vm_hwm_mb "self" in
  let wal_per_txn, recovery_s, restore_gate, epilogue = corpus_durable_epilogue () in
  let units = windows calib ~txn ~read ~reqs_per_chunk:chunk_blocks in
  let n = float_of_int !attempted in
  {
    attempted = !attempted;
    failed = !failed;
    gates =
      [
        gate "no_errors" (!failed = 0) (String.concat "; " (List.rev !errors));
        round_gate "invariants" !broken "all scenario invariants hold after every round";
        restore_gate;
      ];
    metrics =
      unit_metrics units
      @ [
          ("ok_ratio", (n -. float_of_int !failed) /. n, "ratio");
          ("setup_s", setup_s, "s");
          ("recovery_s", recovery_s, "s");
          ("peak_rss_mb", rss, "MB");
          ("wal_bytes_per_txn", wal_per_txn, "B");
        ];
    record =
      [
        ("flush_policy", Str "none (in-process, no WAL)");
        ("sessions", Int 1);
        ("round_blocks", Int round_blocks);
        ("fsync", fsync_context probe);
        ("calibration", calib_context calib);
        ("units", units_context units);
        ("raw_req_per_s", Num (n /. sum (Calib.chunks calib)));
        ("rolled_back", Int !rolled_back);
        ("setup", setup_record);
        ("durable_epilogue", epilogue);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Chunked sessions                                                    *)

(* Drive [sessions] threads through chunks: in chunk [g] every session
   runs [work s g], then all sit idle while the main thread times the
   reference kernel.  [more n] decides, after [n] chunks, whether
   another starts; chunk numbers continue from [Calib]'s count, so one
   calibration can span several rounds. *)
type barrier = {
  m : Mutex.t;
  cv : Condition.t;
  mutable chunk : int;  (** current chunk; -1 stops the sessions *)
  mutable running : int;
}

let chunked calib ~more work =
  let base = Array.length (Calib.chunks calib) in
  let bar = { m = Mutex.create (); cv = Condition.create (); chunk = base - 1; running = 0 } in
  let session s =
    let rec loop seen =
      Mutex.lock bar.m;
      while bar.chunk = seen do
        Condition.wait bar.cv bar.m
      done;
      let g = bar.chunk in
      Mutex.unlock bar.m;
      if g >= 0 then begin
        work s g;
        Mutex.lock bar.m;
        bar.running <- bar.running - 1;
        Condition.broadcast bar.cv;
        Mutex.unlock bar.m;
        loop g
      end
    in
    loop (base - 1)
  in
  let threads = List.init sessions (Thread.create session) in
  let n = ref 0 in
  while more !n do
    let t0 = now () in
    Mutex.lock bar.m;
    bar.running <- sessions;
    bar.chunk <- base + !n;
    Condition.broadcast bar.cv;
    while bar.running > 0 do
      Condition.wait bar.cv bar.m
    done;
    Mutex.unlock bar.m;
    Calib.tick calib ~chunk_s:(now () -. t0);
    incr n
  done;
  Mutex.lock bar.m;
  bar.chunk <- -1;
  Condition.broadcast bar.cv;
  Mutex.unlock bar.m;
  List.iter Thread.join threads;
  !n

(* ------------------------------------------------------------------ *)
(* External-server plumbing                                            *)

let request_ok c text =
  match Client.request c text with
  | Ok body -> body
  | Error e -> failwith (Printf.sprintf "request %S failed: %s" text e)

(* Spawn a server on a fresh data dir and run [setup] through one
   connection: what setup_s times. *)
let server_setup args setup () =
  let dir = Proc.scratch_dir (tmp_root ()) in
  let s = Proc.spawn_server !server_exe (args @ [ "--data-dir"; dir ]) in
  let c = Client.connect ~port:s.Proc.port () in
  List.iter (fun st -> ignore (request_ok c st)) setup;
  Client.close c;
  (s, dir)

let wire_digest c tables =
  List.map (fun t -> (t, Streams.canonical (request_ok c (Streams.table_query t)))) tables

let first_diff a b =
  match List.find_opt (fun (t, d) -> List.assoc_opt t b <> Some d) a with
  | Some (t, _) -> "table " ^ t ^ " differs"
  | None -> "equal"

let parse_stat body key =
  List.find_map
    (fun line ->
      let line = String.trim line in
      if String.length line > String.length key
         && String.sub line 0 (String.length key) = key
      then
        Scanf.sscanf_opt
          (String.sub line (String.length key) (String.length line - String.length key))
          " %d" Fun.id
      else None)
    (String.split_on_char '\n' body)

(* Send a transaction block, retrying serialization failures after an
   exponential backoff (50 us doubling to 10 ms).  The backoff matters:
   a retry conflicts for as long as the winning commit sits in its
   group-commit fsync, and a fast-failing claim takes only 50-100 us,
   so an unpaced loop burns its whole retry cap inside one slow fsync
   of 0.1 s. *)
let txn_request c text ~conflicts =
  let rec attempt n =
    match Client.request c text with
    | Ok body -> `Ok body
    | Error e when is_conflict e ->
      incr conflicts;
      ignore (Client.request c "rollback");
      if n >= max_attempts then `Abandoned e
      else begin
        Thread.delay (Float.min 0.01 (0.00005 *. Float.pow 2. (float_of_int (min 8 (n - 1)))));
        attempt (n + 1)
      end
    | Error e ->
      ignore (Client.request c "rollback");
      `Error e
  in
  attempt 1

(* Kill the server (no shutdown checkpoint) and restore its data dir:
   the restored state must equal the live digest. *)
let restore_check (s, dir) ~config ~tables ~live ~timed =
  Proc.stop_server s;
  if perturbed "restore_digest" then tear_wal dir;
  let restored, rec_s, record =
    if timed then repeated recovery_repeats (fun () -> Recovery.restore ~config dir)
    else ([ Recovery.restore ~config dir ], nan, Obj [])
  in
  let sys, info = List.hd restored in
  let got = Streams.digest_of_system sys tables in
  Proc.release_dir dir;
  ( rec_s,
    (if got = live then None else Some ("restore vs live: " ^ first_diff live got)),
    Obj [ ("records", Int info.Recovery.ri_records); ("recovery", record) ] )

(* ------------------------------------------------------------------ *)
(* corpus-durable                                                      *)

(* One round: a fresh server, the fixed stream over [sessions] closed
   loops, then the round's gates. *)
type round_result = {
  r_txn : tagged;
  r_read : tagged;
  r_setup_s : float;
  r_recovery_s : float;
  r_rss_mb : float;
  r_wal_bytes : int;
  r_writes : int;
  r_failures : string list;
  r_broken : (string * string) list;  (** (gate, detail) *)
  r_conflicts : int;
  r_rolled_back : int;
  r_stats : string;
}

let durable_args = [ "--group"; "--track-selects" ]

let durable_round calib stream =
  let (keep, _, setup_s, _) =
    calibrated (server_setup durable_args (Streams.corpus_setup ~seed:!seed))
  in
  let srv, dir = keep in
  let ctl = Client.connect ~port:srv.Proc.port () in
  let base_version = int_of_string (String.trim (request_ok ctl "\\version")) in
  let wal0 = wal_bytes dir in
  let lock = Mutex.create () in
  let issued = ref 0 in
  let committed = ref [] and rolled_back = ref 0 and failures = ref [] in
  let conflicts = Array.init sessions (fun _ -> ref 0) in
  let txn = tagged () and read = tagged () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let clients = Array.init sessions (fun _ -> Client.connect ~port:srv.Proc.port ()) in
  let first_chunk = Array.length (Calib.chunks calib) in
  (* chunk g covers blocks [(g - first) * chunk_blocks, ...), shared by
     the sessions through one counter *)
  let work s g =
    let hi = (g - first_chunk + 1) * chunk_blocks in
    let rec loop () =
      let next =
        locked (fun () ->
            if !issued >= hi then None
            else begin
              let i = !issued in
              incr issued;
              Some i
            end)
      in
      match next with
      | None -> ()
      | Some i ->
        let b = stream.(i) in
        let t0 = now () in
        let r = txn_request clients.(s) (Streams.txn_text b) ~conflicts:conflicts.(s) in
        let dt = now () -. t0 in
        locked (fun () ->
            match r with
            | `Ok body -> (
              tag (if Streams.is_read_block b then read else txn) ~chunk:g dt;
              match commit_version body with
              | Some v -> committed := (v, i) :: !committed
              | None -> incr rolled_back)
            | `Abandoned e ->
              failures :=
                Printf.sprintf "abandoned after %d attempts (%s): %s" max_attempts e b
                :: !failures
            | `Error e -> failures := e :: !failures);
        loop ()
    in
    loop ()
  in
  ignore (chunked calib ~more:(fun n -> n < Array.length stream / chunk_blocks) work);
  Array.iter Client.close clients;
  let conflicts = Array.fold_left (fun a c -> a + !c) 0 conflicts in
  let stats = request_ok ctl "\\stats" in
  let rss = vm_hwm_mb (string_of_int srv.Proc.pid) in
  let wal = wal_bytes dir - wal0 in
  let tables = Streams.corpus_tables () in
  let live = wire_digest ctl tables in
  Client.close ctl;
  let order = List.sort compare !committed in
  let order =
    if perturbed "versions_dense" then
      List.filteri (fun k _ -> k <> List.length order / 2) order
    else order
  in
  let dense =
    List.for_all2 (fun k (v, _) -> v = base_version + 1 + k)
      (List.init (List.length order) Fun.id) order
  in
  let writes = List.length (List.filter (fun (_, i) -> not (Streams.is_read_block stream.(i))) order) in
  (* serial replay in version order on an in-process twin *)
  let replay = corpus_system () in
  (* perturbed: replay only the first half of the history *)
  let replayed =
    if perturbed "serial_replay" then List.filteri (fun k _ -> 2 * k < List.length order) order
    else order
  in
  let replay_error =
    List.find_map
      (fun (v, i) ->
        match run_block replay (Streams.txn_text stream.(i)) with
        | Committed -> None
        | Rolled_back -> Some (Printf.sprintf "version %d rolled back in replay" v)
        | Failed e -> Some (Printf.sprintf "version %d failed in replay: %s" v e))
      replayed
  in
  let replay_digest = Streams.digest_of_system replay tables in
  let server_conflicts = Option.value ~default:(-1) (parse_stat stats "conflicts:") in
  let client_conflicts = conflicts + if perturbed "conflicts_match" then 1 else 0 in
  let recovery_s, restore_error, _ =
    restore_check keep ~config:Streams.corpus_config ~tables ~live ~timed:true
  in
  let broken =
    List.filter_map Fun.id
      [
        (if dense then None
         else
           Some
             ( "versions_dense",
               Printf.sprintf "%d commits are not dense from version %d" (List.length order)
                 (base_version + 1) ));
        (match replay_error with
        | Some e -> Some ("serial_replay", e)
        | None when replay_digest <> live ->
          Some ("serial_replay", "replay vs live: " ^ first_diff live replay_digest)
        | None -> None);
        (if server_conflicts = client_conflicts then None
         else
           Some
             ( "conflicts_match",
               Printf.sprintf "server %d, client retries %d" server_conflicts client_conflicts ));
        Option.map (fun e -> ("restore_digest", e)) restore_error;
      ]
  in
  {
    r_txn = txn;
    r_read = read;
    r_setup_s = setup_s;
    r_recovery_s = recovery_s;
    r_rss_mb = rss;
    r_wal_bytes = wal;
    r_writes = writes;
    r_failures = !failures;
    r_broken = broken;
    r_conflicts = conflicts;
    r_rolled_back = !rolled_back;
    r_stats = stats;
  }

let corpus_durable () =
  let sg = segments () in
  let probe = fsync_probe 1000 in
  let calib = Calib.create () in
  let rounds = ref [] in
  while sum (Calib.chunks calib) < !seconds do
    rounds := durable_round calib (next_segment sg) :: !rounds
  done;
  let rounds = List.rev !rounds in
  let units =
    windows calib
      ~txn:(merge_tagged (List.map (fun r -> r.r_txn) rounds))
      ~read:(merge_tagged (List.map (fun r -> r.r_read) rounds))
      ~reqs_per_chunk:chunk_blocks
  in
  let med f = median_list (List.map f rounds) in
  let failures = List.concat_map (fun r -> r.r_failures) rounds in
  let attempted = List.fold_left (fun a u -> a + u.reqs) 0 units in
  let n = float_of_int attempted in
  let broken g = List.filter_map (fun r -> List.assoc_opt g r.r_broken) rounds in
  let total f = List.fold_left (fun a r -> a + f r) 0 rounds in
  {
    attempted;
    failed = List.length failures;
    gates =
      [
        gate "no_errors" (failures = [])
          (String.concat "; " (List.filteri (fun i _ -> i < 5) failures));
        round_gate "versions_dense" (broken "versions_dense") "commit versions dense in every round";
        round_gate "serial_replay" (broken "serial_replay")
          "serial replay in version order reproduces the live digest in every round";
        round_gate "conflicts_match" (broken "conflicts_match")
          "server conflict count equals client retries in every round";
        round_gate "restore_digest" (broken "restore_digest")
          "restored state equals the live state in every round";
      ];
    metrics =
      unit_metrics units
      @ [
          ("ok_ratio", (n -. float_of_int (List.length failures)) /. n, "ratio");
          ("setup_s", med (fun r -> r.r_setup_s), "s");
          ("recovery_s", med (fun r -> r.r_recovery_s), "s");
          ("peak_rss_mb", med (fun r -> r.r_rss_mb), "MB");
          ( "wal_bytes_per_txn",
            float_of_int (total (fun r -> r.r_wal_bytes))
            /. float_of_int (max 1 (total (fun r -> r.r_writes))),
            "B" );
        ];
    record =
      [
        ("flush_policy", Str "group commit, fsync on (serve --group --track-selects)");
        ("sessions", Int sessions);
        ("round_blocks", Int round_blocks);
        ("fsync", fsync_context probe);
        ("calibration", calib_context calib);
        ("raw_req_per_s", Num (n /. sum (Calib.chunks calib)));
        ("units", units_context units);
        ("setup_s", floats (Array.of_list (List.map (fun r -> r.r_setup_s) rounds)));
        ("recovery_s", floats (Array.of_list (List.map (fun r -> r.r_recovery_s) rounds)));
        ("conflicts", Int (total (fun r -> r.r_conflicts)));
        ("rolled_back", Int (total (fun r -> r.r_rolled_back)));
        ("server_stats", Arr (List.map (fun r -> Str r.r_stats) rounds));
      ];
  }

(* ------------------------------------------------------------------ *)
(* kv-mixed                                                            *)

type kv_log = {
  k_txn : tagged;
  k_read : tagged;
  mutable k_reads : (int * int) list;  (** (key, value) in session order *)
  mutable k_committed : int;
  mutable k_failures : string list;
  k_conflicts : int ref;
}

let parse_read body =
  match String.split_on_char '\n' body with
  | _ :: _ :: v :: _ -> int_of_string_opt (String.trim v)
  | _ -> None

let kv_args = [ "--nosync" ]

let kv_mixed () =
  let setup = Streams.kv_setup ~seed:!seed in
  let runs, setup_s, setup_record =
    repeated (setup_repeats !workload) (server_setup kv_args setup)
  in
  (* the spare set-ups hold exactly the seeded table: their restores
     time recovery over fixed work *)
  let ((srv, dir) as keep) = List.hd runs in
  let spare_restores =
    List.mapi
      (fun i ((s, _) as sp) ->
        let c = Client.connect ~port:s.Proc.port () in
        let live = wire_digest c [ "kv" ] in
        Client.close c;
        restore_check sp ~config:Engine.default_config ~tables:[ "kv" ] ~live ~timed:(i = 0))
      (List.tl runs)
  in
  let probe = fsync_probe 1000 in
  let wal0 = wal_bytes dir in
  let per_session = chunk_blocks / sessions in
  let logs =
    Array.init sessions (fun _ ->
        {
          k_txn = tagged ();
          k_read = tagged ();
          k_reads = [];
          k_committed = 0;
          k_failures = [];
          k_conflicts = ref 0;
        })
  in
  let clients = Array.init sessions (fun _ -> Client.connect ~port:srv.Proc.port ()) in
  Array.iter (fun cl -> List.iter (fun p -> ignore (request_ok cl p)) Streams.kv_prepare) clients;
  let samplers = Array.init sessions (fun s -> Streams.kv_sampler ~seed:!seed ~session:s) in
  (* every session does [per_session] requests per chunk *)
  let work s g =
    let log = logs.(s) and cl = clients.(s) in
    for j = 1 to per_session do
      let req = Streams.kv_next samplers.(s) in
      let text =
        if s = 0 && g = 0 && j = 1 && perturbed "no_errors" then bad_request
        else Streams.kv_text req
      in
      let t0 = now () in
      match req with
      | Streams.Read k -> (
        match Client.request cl text with
        | Ok body -> (
          tag log.k_read ~chunk:g (now () -. t0);
          match parse_read body with
          | Some v -> log.k_reads <- (k, v) :: log.k_reads
          | None -> log.k_failures <- ("unreadable: " ^ body) :: log.k_failures)
        | Error e -> log.k_failures <- e :: log.k_failures)
      | Streams.Write _ -> (
        match txn_request cl text ~conflicts:log.k_conflicts with
        | `Ok body ->
          tag log.k_txn ~chunk:g (now () -. t0);
          if commit_version body <> None then log.k_committed <- log.k_committed + 1
        | `Abandoned e | `Error e -> log.k_failures <- e :: log.k_failures)
    done
  in
  let calib = Calib.create () in
  let deadline = now () +. !seconds in
  (* whole windows only, so every window holds the same work *)
  let chunks =
    chunked calib ~more:(fun n -> now () < deadline || n mod window_chunks <> 0) work
  in
  Array.iter Client.close clients;
  let logs = Array.to_list logs in
  let ctl = Client.connect ~port:srv.Proc.port () in
  let rss = vm_hwm_mb (string_of_int srv.Proc.pid) in
  let wal = wal_bytes dir - wal0 in
  let sum_v =
    match String.split_on_char '\n' (request_ok ctl "select sum(v) from kv") with
    | _ :: _ :: v :: _ -> int_of_string (String.trim v)
    | _ -> -1
  in
  let live = wire_digest ctl [ "kv" ] in
  Client.close ctl;
  let committed =
    List.fold_left (fun a l -> a + l.k_committed) 0 logs + if perturbed "sum" then 1 else 0
  in
  let expected = Streams.kv_seed_sum ~seed:!seed + committed in
  let backwards =
    List.fold_left
      (fun acc l ->
        let reads = List.rev l.k_reads in
        let reads =
          match (perturbed "monotonic_reads", reads) with
          | true, (k, v) :: _ -> reads @ [ (k, v - 1) ]
          | _ -> reads
        in
        let last = Hashtbl.create 1024 in
        List.fold_left
          (fun acc (k, v) ->
            let back = match Hashtbl.find_opt last k with Some p -> v < p | None -> false in
            Hashtbl.replace last k v;
            if back then acc + 1 else acc)
          acc reads)
      0 logs
  in
  let _, restore_error, run_record =
    restore_check keep ~config:Engine.default_config ~tables:[ "kv" ] ~live ~timed:false
  in
  let units =
    windows calib
      ~txn:(merge_tagged (List.map (fun l -> l.k_txn) logs))
      ~read:(merge_tagged (List.map (fun l -> l.k_read) logs))
      ~reqs_per_chunk:chunk_blocks
  in
  let failures = List.concat_map (fun l -> l.k_failures) logs in
  let attempted = chunks * per_session * sessions in
  let n = float_of_int attempted in
  {
    attempted;
    failed = List.length failures;
    gates =
      [
        gate "no_errors" (failures = [])
          (String.concat "; " (List.filteri (fun i _ -> i < 5) failures));
        gate "sum" (sum_v = expected)
          (Printf.sprintf "sum(v) = %d, seed sum + committed updates = %d" sum_v expected);
        gate "monotonic_reads" (backwards = 0) (Printf.sprintf "%d reads went backwards" backwards);
        round_gate "restore_digest"
          (List.filter_map Fun.id (restore_error :: List.map (fun (_, e, _) -> e) spare_restores))
          "restored state equals the live state";
      ];
    metrics =
      unit_metrics units
      @ [
          ("ok_ratio", (n -. float_of_int (List.length failures)) /. n, "ratio");
          ("setup_s", setup_s, "s");
          ("recovery_s", (fun (r, _, _) -> r) (List.hd spare_restores), "s");
          ("peak_rss_mb", rss, "MB");
          ("wal_bytes_per_txn", float_of_int wal /. float_of_int (max 1 committed), "B");
        ];
    record =
      [
        ("flush_policy", Str "WAL without fsync (serve --nosync)");
        ("sessions", Int sessions);
        ("fsync", fsync_context probe);
        ("calibration", calib_context calib);
        ("units", units_context units);
        ("raw_req_per_s", Num (n /. sum (Calib.chunks calib)));
        ("committed_updates", Int committed);
        ("conflicts", Int (List.fold_left (fun a l -> a + !(l.k_conflicts)) 0 logs));
        ("setup", setup_record);
        ("recovery", (fun (_, _, r) -> r) (List.hd spare_restores));
        ("run_restore", run_record);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* One in-process pipeline: the statement path System.exec takes,
   decomposed into the layers' public entry points, over a Durable
   store whose commit hook only captures the transaction log so the WAL
   append can be timed on its own. *)
type pipe = {
  sys : System.t;
  eng : Engine.t;
  d : Durable.t;
  dir : string;
  tr : Trace.t;
  fresh_cache : bool;  (** emulate the server's per-fork empty cache *)
  mutable log : Engine.txn_log option;
  mutable words : float;
  mutable majors : int;
  mutable bytes_parsed : int;
  wal_bytes0 : int;  (** WAL size after set-up *)
  mutable wal_records : int;
  mutable busy : float;
  mutable errors : int;
}

let make_pipe ~config ~setup ~prepare ~spans ~fresh_cache =
  let dir = Proc.scratch_dir (tmp_root ()) in
  let d, _ = Durable.open_dir ~config ~sync:false dir in
  List.iter (fun st -> ignore (Durable.exec d st)) setup;
  let sys = Durable.system d in
  let eng = System.engine sys in
  let p =
    {
      sys;
      eng;
      d;
      dir;
      tr = Trace.create ~on:spans;
      fresh_cache;
      log = None;
      words = 0.;
      majors = 0;
      bytes_parsed = 0;
      wal_bytes0 = (Durable.status d).Durable.st_wal_bytes;
      wal_records = 0;
      busy = 0.;
      errors = 0;
    }
  in
  Engine.set_commit_hook eng (Some (fun txl -> p.log <- Some txl));
  List.iter (fun st -> ignore (System.exec sys st)) prepare;
  p

let layer p ~req name f =
  Trace.with_span p.tr ~req name (fun () ->
      let w0 = Gc.minor_words () in
      let r = f () in
      p.words <- p.words +. (Gc.minor_words () -. w0);
      r)

(* cached_cop / prepared_cop: a call that compiled is a "compile"
   span, one served from the cache a "cache" span. *)
let plan p ~req f =
  let st = Engine.stats p.eng in
  let m0 = st.Engine.stmt_cache_misses + st.Engine.stmt_cache_invalidations in
  let cop = layer p ~req "cache" f in
  if st.Engine.stmt_cache_misses + st.Engine.stmt_cache_invalidations > m0 then
    Trace.rename_last p.tr "compile";
  cop

let exec_cop p ~req (op : Ast.op) ?params cop =
  layer p ~req "exec" (fun () ->
      if Engine.in_transaction p.eng then ignore (Engine.submit_cops p.eng ?params [ cop ])
      else
        match op with
        | Ast.Select_op _ -> ignore (Engine.query_cop p.eng ?params cop)
        | _ -> ignore (Engine.execute_block_cops p.eng ?params [ cop ]))

let pipe_stmt p ~req (stmt : Ast.statement) =
  match stmt with
  | Ast.Stmt_begin -> layer p ~req "exec" (fun () -> Engine.begin_txn p.eng)
  | Ast.Stmt_op op -> exec_cop p ~req op (plan p ~req (fun () -> Engine.cached_cop p.eng op))
  | Ast.Stmt_execute (name, args) ->
    let pr = Engine.find_prepared p.eng name in
    let params = Engine.bind_params pr args in
    let cop = plan p ~req (fun () -> Engine.prepared_cop p.eng pr) in
    exec_cop p ~req (Engine.prepared_op pr) ~params cop
  | Ast.Stmt_commit -> (
    match layer p ~req "rules" (fun () -> Engine.process_rules p.eng) with
    | Engine.Committed when Engine.in_transaction p.eng -> (
      ignore (layer p ~req "commit" (fun () -> Engine.commit p.eng));
      match p.log with
      | Some txl ->
        p.log <- None;
        p.wal_records <- p.wal_records + 1;
        layer p ~req "wal" (fun () -> Durable.append_txn p.d (Durable.dml_of_log txl))
      | None -> ())
    | _ -> ())
  | _ -> failwith "unexpected statement kind in the stream"

let pipe_request p ~req text =
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  (try
     Trace.with_span p.tr ~req "request" (fun () ->
         let stmts = layer p ~req "sql" (fun () -> Parser.parse_script text) in
         p.bytes_parsed <- p.bytes_parsed + String.length text;
         if p.fresh_cache then Engine.stmt_cache_clear p.eng;
         List.iter (pipe_stmt p ~req) stmts)
   with Errors.Error _ ->
     p.errors <- p.errors + 1;
     if Engine.in_transaction p.eng then Engine.rollback_txn p.eng);
  p.busy <- p.busy +. (now () -. t0);
  p.majors <- p.majors + ((Gc.quick_stat ()).Gc.major_collections - m0)

(* The in-process server: two sessions in threads drive a share of the
   stream, each statement timed around Server.exec_stmt by kind; then a
   loopback listener pairs Client.request with an in-process
   exec_script of the same read to isolate the wire. *)
let server_layers ~mode ~config ~setup ~prepare ~requests ~reads =
  let dir = Proc.scratch_dir (tmp_root ()) in
  let srv = Server.create ~config ~data_dir:dir mode in
  let s0 = Server.open_session srv in
  List.iter
    (fun st ->
      match Server.exec_script srv s0 st with
      | Ok _ -> ()
      | Error e -> failwith ("server setup: " ^ e))
    setup;
  Server.close_session srv s0;
  let n = Array.length requests in
  let traces = List.init sessions (fun _ -> Trace.create ~on:true) in
  let conflicts = Array.make sessions 0 and commits = Array.make sessions 0 in
  let worker (w, tr) =
    let s = Server.open_session srv in
    List.iter (fun st -> ignore (Server.exec_script srv s st)) prepare;
    let i = ref w in
    while !i < n do
      let req = !i in
      let stmts = Parser.parse_script requests.(req) in
      let rec attempt () =
        let in_txn = ref false in
        match
          List.iter
            (fun (stmt : Ast.statement) ->
              let kind =
                match stmt with
                | Ast.Stmt_begin -> "server.begin"
                | Ast.Stmt_commit ->
                  commits.(w) <- commits.(w) + 1;
                  "server.commit"
                | _ -> if !in_txn then "server.stmt" else "server.read"
              in
              ignore (Trace.with_span tr ~req kind (fun () -> Server.exec_stmt srv s stmt));
              match stmt with
              | Ast.Stmt_begin -> in_txn := true
              | Ast.Stmt_commit -> in_txn := false
              | _ -> ())
            stmts
        with
        | () -> ()
        | exception Errors.Error e when is_conflict (Errors.to_string e) ->
          conflicts.(w) <- conflicts.(w) + 1;
          (try ignore (Server.exec_stmt srv s Ast.Stmt_rollback) with Errors.Error _ -> ());
          (* let the winner, which may need the runtime lock back after
             its fsync, publish before this session retries *)
          Thread.yield ();
          attempt ()
      in
      attempt ();
      i := !i + sessions
    done;
    Server.close_session srv s
  in
  let threads = List.mapi (fun w tr -> Thread.create worker (w, tr)) traces in
  List.iter Thread.join threads;
  phase "server sessions done";
  let group = Server.group_stats srv in
  (* the wire: paired in-process and loopback executions of each read *)
  let listener = Server.start srv in
  let cl = Client.connect ~port:(Server.port listener) () in
  let s = Server.open_session srv in
  List.iter
    (fun st ->
      ignore (Server.exec_script srv s st);
      ignore (Client.request cl st))
    prepare;
  let inproc = Samples.create () and wire = Samples.create () in
  Array.iteri
    (fun i q ->
      let local () =
        let t0 = now () in
        ignore (Server.exec_script srv s q);
        Samples.add inproc (now () -. t0)
      and remote () =
        let t0 = now () in
        ignore (Client.request cl q);
        Samples.add wire (now () -. t0)
      in
      if i land 1 = 0 then (local (); remote ()) else (remote (); local ()))
    reads;
  Client.close cl;
  Server.close_session srv s;
  Server.stop listener;
  Server.close srv;
  Proc.release_dir dir;
  let txns_per_batch, fsyncs_per_txn =
    match group with
    | Some g ->
      ( ratio (float_of_int g.Durability.Group_commit.gc_txns)
          (float_of_int g.Durability.Group_commit.gc_batches),
        ratio (float_of_int g.Durability.Group_commit.gc_batches)
          (float_of_int g.Durability.Group_commit.gc_txns) )
    | None -> (1., 0.) (* --nosync: one record per commit, no fsync *)
  in
  let conflicts = Array.fold_left ( + ) 0 conflicts
  and commits = Array.fold_left ( + ) 0 commits in
  let inproc = trimmed_mean (Samples.to_array inproc) in
  ( traces,
    txns_per_batch,
    fsyncs_per_txn,
    ratio (float_of_int conflicts) (float_of_int commits),
    us inproc,
    us (trimmed_mean (Samples.to_array wire) -. inproc) )

let traced () =
  let kv = !workload = "kv-mixed" in
  let config = if kv then Engine.default_config else Streams.corpus_config in
  let setup = if kv then Streams.kv_setup ~seed:!seed else Streams.corpus_setup ~seed:!seed in
  let prepare = if kv then Streams.kv_prepare else [] in
  let requests =
    if kv then
      let s = Streams.kv_sampler ~seed:!seed ~session:0 in
      Array.init traced_kv_requests (fun _ -> Streams.kv_text (Streams.kv_next s))
    else Array.map Streams.txn_text (next_segment (segments ()))
  in
  let n = Array.length requests in
  let fresh_cache = !workload = "corpus-durable" in
  let p1 = make_pipe ~config ~setup ~prepare ~spans:true ~fresh_cache in
  let p2 = make_pipe ~config ~setup ~prepare ~spans:false ~fresh_cache in
  let u = System.create ~config () in
  List.iter (fun st -> ignore (System.exec u st)) (setup @ prepare);
  let u_busy = ref 0. in
  let run_u text =
    let t0 = now () in
    ignore (run_block u text);
    u_busy := !u_busy +. (now () -. t0)
  in
  phase "pipelines set up";
  (* Engine.stats is the live mutable record: copy it *)
  let st0 =
    let s = Engine.stats p1.eng in
    { s with Engine.transactions = s.Engine.transactions }
  in
  (* lockstep in chunks, rotating which system runs a chunk first, so
     host-speed episodes fall on all three alike *)
  let chunk = 200 in
  let k = ref 0 in
  while !k < n do
    let hi = min n (!k + chunk) in
    let run_p p () = for i = !k to hi - 1 do pipe_request p ~req:i requests.(i) done in
    let run_plain () = for i = !k to hi - 1 do run_u requests.(i) done in
    let order = [| run_p p1; run_p p2; run_plain |] in
    let r = !k / chunk mod 3 in
    for j = 0 to 2 do
      order.((r + j) mod 3) ()
    done;
    k := hi
  done;
  phase "pipelines done";
  let st1 = Engine.stats p1.eng in
  let delta f = float_of_int (f st1 - f st0) in
  let per_txn x = x /. float_of_int n in
  (* end-of-stream checks on the traced system *)
  let check =
    if kv then begin
      let sum_v = Workload.Scenario.int_value p1.sys "select sum(v) from kv" in
      let sum_u = Workload.Scenario.int_value u "select sum(v) from kv" in
      gate "sum" (sum_v = sum_u)
        (Printf.sprintf "traced %d, untraced %d" sum_v sum_u)
    end
    else
      match check_invariants p1.sys with
      | None -> gate "invariants" true "all scenario invariants hold"
      | Some m -> gate "invariants" false m
  in
  let live = Recovery.fingerprint p1.sys in
  let wal_bytes = (Durable.status p1.d).Durable.st_wal_bytes - p1.wal_bytes0 in
  Durable.close p1.d;
  Durable.close p2.d;
  Proc.release_dir p2.dir;
  if perturbed "restore_digest" then tear_wal p1.dir;
  let t0 = now () in
  let restored, info = Recovery.restore ~config p1.dir in
  let recovery_s = now () -. t0 in
  let restore_ok = Recovery.fingerprint restored = live in
  let d, _ = Durable.open_dir ~config ~sync:false p1.dir in
  let t0 = now () in
  Durable.checkpoint d;
  let checkpoint_s = now () -. t0 in
  Durable.close d;
  Proc.release_dir p1.dir;
  phase "recovery and checkpoint done";
  let probe = fsync_probe 2000 in
  let share = n / traced_server_share in
  let reads =
    if kv then
      Array.of_list
        (List.filteri (fun i _ -> i < 2000)
           (List.filter (fun r -> Streams.starts_with "execute rd" r) (Array.to_list requests)))
    else
      Array.of_list
        (List.filteri (fun i _ -> i < 2000)
           (List.concat_map
              (fun r ->
                List.filter
                  (fun s -> Streams.starts_with "select" s && not (contains s "acct"))
                  (List.map String.trim (String.split_on_char ';' r)))
              (Array.to_list requests)))
  in
  let traces, txns_per_batch, fsyncs_per_txn, conflict_ratio, read_us, wire_us =
    server_layers
      ~mode:(if kv then Server.Wal_nosync else Server.Wal_group)
      ~config ~setup ~prepare ~requests:(Array.sub requests 0 share) ~reads
  in
  phase "server layers done";
  (* spans to disk, then the split *)
  Trace.write p1.tr (Filename.concat !out_dir ("spans-" ^ !workload ^ ".jsonl"));
  let selfs = Trace.self_times p1.tr in
  let self name = match Hashtbl.find_opt selfs name with Some (_, s, _) -> s | None -> 0. in
  let count name = match Hashtbl.find_opt selfs name with Some (c, _, _) -> c | None -> 0 in
  let total name = match Hashtbl.find_opt selfs name with Some (_, _, t) -> t | None -> 0. in
  let server_mean kind =
    let c, t =
      List.fold_left
        (fun (c, t) tr ->
          match Hashtbl.find_opt (Trace.self_times tr) kind with
          | Some (c', _, t') -> (c + c', t +. t')
          | None -> (c, t))
        (0, 0.) traces
    in
    if c = 0 then 0. else us (t /. float_of_int c)
  in
  let layers = [ "sql"; "cache"; "compile"; "exec"; "rules"; "commit" ] in
  let self_sum = List.fold_left (fun a l -> a +. self l) 0. layers in
  let hits = delta (fun s -> s.Engine.stmt_cache_hits)
  and misses = delta (fun s -> s.Engine.stmt_cache_misses + s.Engine.stmt_cache_invalidations) in
  let conditions = delta (fun s -> s.Engine.conditions_evaluated) in
  let fired = delta (fun s -> s.Engine.rule_firings) in
  let metrics =
    [
      ("sql.parse_us_per_txn", us (per_txn (self "sql")), "us");
      ("sql.parse_ns_per_byte", self "sql" *. 1e9 /. float_of_int p1.bytes_parsed, "ns/B");
      ("cache.hit_ratio", ratio hits (hits +. misses), "ratio");
      ( "cache.us_per_stmt",
        us (ratio (total "cache" +. total "compile") (float_of_int (count "cache" + count "compile"))),
        "us" );
      ("compile.us_per_miss", us (ratio (total "compile") (float_of_int (count "compile"))), "us");
      ("exec.us_per_txn", us (per_txn (self "exec")), "us");
      ("exec.seq_scans_per_txn", per_txn (delta (fun s -> s.Engine.seq_scans)), "count");
      ("exec.index_probes_per_txn", per_txn (delta (fun s -> s.Engine.index_probes)), "count");
      ("exec.range_probes_per_txn", per_txn (delta (fun s -> s.Engine.range_probes)), "count");
      ("exec.hash_join_probes_per_txn", per_txn (delta (fun s -> s.Engine.hash_join_probes)), "count");
      ("rules.us_per_txn", us (per_txn (self "rules")), "us");
      ("rules.considered_per_txn", per_txn (delta (fun s -> s.Engine.candidates_considered)), "count");
      ("rules.skipped_per_txn", per_txn (delta (fun s -> s.Engine.rules_skipped)), "count");
      ("rules.conditions_per_txn", per_txn conditions, "count");
      ("rules.fired_per_txn", per_txn fired, "count");
      ("rules.fire_ratio", ratio fired conditions, "ratio");
      ( "rules.rollback_ratio",
        ratio (delta (fun s -> s.Engine.rollbacks)) (delta (fun s -> s.Engine.transactions)),
        "ratio" );
      ("commit.us_per_txn", us (per_txn (self "commit")), "us");
      ("wal.append_us_per_txn", us (ratio (self "wal") (float_of_int (count "wal"))), "us");
      ("wal.bytes_per_txn", ratio (float_of_int wal_bytes) (float_of_int p1.wal_records), "B");
      ("fsync.p50_us", us (percentile probe 0.5), "us");
      ("fsync.p90_us", us (percentile probe 0.9), "us");
      ("group.txns_per_batch", txns_per_batch, "count");
      ("group.fsyncs_per_txn", fsyncs_per_txn, "count");
      ("server.begin_us", server_mean "server.begin", "us");
      ("server.stmt_us", server_mean "server.stmt", "us");
      ("server.commit_us", server_mean "server.commit", "us");
      ("server.read_us", read_us, "us");
      ("server.conflict_ratio", conflict_ratio, "ratio");
      ("wire.us_per_req", wire_us, "us");
      ("checkpoint.s", checkpoint_s, "s");
      ("recovery.records", float_of_int info.Recovery.ri_records, "count");
      ("recovery.us_per_record", us (ratio recovery_s (float_of_int info.Recovery.ri_records)), "us");
      ("gc.minor_words_per_txn", per_txn p1.words, "words");
      ("gc.major_per_ktxn", 1000. *. per_txn (float_of_int p1.majors), "count");
      ("trace.overhead_ratio", (p1.busy /. p2.busy) -. 1., "ratio");
      ("trace.self_sum_ratio", self_sum /. !u_busy, "ratio");
    ]
  in
  {
    attempted = n;
    failed = p1.errors;
    gates =
      [
        gate "no_errors" (p1.errors = 0 && p2.errors = 0)
          (Printf.sprintf "%d traced, %d untraced errors" p1.errors p2.errors);
        check;
        gate "restore_digest" restore_ok
          (if restore_ok then "restored state equals the live state"
           else "restored state differs from the live state");
      ];
    metrics;
    record =
      [
        ("requests", Int n);
        ("server_requests", Int share);
        ("wire_reads", Int (Array.length reads));
        ("fsync", fsync_context probe);
        ("traced_busy_s", Num p1.busy);
        ("untraced_pipeline_busy_s", Num p2.busy);
        ("system_exec_busy_s", Num !u_busy);
        ("layer_self_sum_s", Num self_sum);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let workloads = [ "corpus-embedded"; "corpus-durable"; "kv-mixed" ]

let () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--server-exe", Arg.Set_string server_exe, "PATH sopr-server binary");
      ("--out", Arg.Set_string out_dir, "DIR records, spans and scratch data");
      ("--rev", Arg.Set_string rev, "REV source revision for the run record");
      ("--perturb", Arg.Set_string perturb, "GATE corrupt what GATE checks");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "sopr_bench [options]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  Proc.install_handlers ();
  Proc.mkdir_p (tmp_root ());
  Proc.mkdir_p (Filename.concat !out_dir "records");
  let r =
    if !trace = 1 then traced ()
    else
      match !workload with
      | "corpus-embedded" -> corpus_embedded ()
      | "corpus-durable" -> corpus_durable ()
      | _ -> kv_mixed ()
  in
  let correct = List.for_all (fun g -> g.g_ok) r.gates in
  List.iter
    (fun g ->
      Printf.eprintf "gate %-16s %s  %s\n" g.g_name (if g.g_ok then "ok  " else "FAIL")
        g.g_detail)
    r.gates;
  let metrics =
    if correct then
      Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) r.metrics)
    else Obj []
  in
  let record =
    Obj
      ([
         ("workload", Str !workload);
         ("seed", Int !seed);
         ("seconds", Num !seconds);
         ("trace", Int !trace);
         ("perturb", Str !perturb);
         ("rev", Str !rev);
         ("nproc", Int (Domain.recommended_domain_count ()));
         ("ocaml", Str Sys.ocaml_version);
         ("correct", Bool correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "gates",
           Arr
             (List.map
                (fun g -> Obj [ ("name", Str g.g_name); ("ok", Bool g.g_ok); ("detail", Str g.g_detail) ])
                r.gates) );
         ("metrics", metrics);
       ]
      @ r.record)
  in
  let path =
    Filename.concat (Filename.concat !out_dir "records")
      (Printf.sprintf "%s-seed%d-trace%d-%d.json" !workload !seed !trace (Unix.getpid ()))
  in
  let oc = open_out path in
  output_string oc (to_json record);
  output_char oc '\n';
  close_out oc;
  print_endline
    (to_json
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("metrics", metrics);
          ]));
  exit (if correct then 0 else 1)
