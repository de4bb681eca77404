(* External sopr-server processes and scratch directories, with the
   hygiene the benchmark promises: every server it spawns is killed and
   reaped, and every data directory removed, on normal exit, on an
   exception and on SIGINT/SIGTERM alike. *)

let live_servers : int list ref = ref []
let live_dirs : string list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let counter = ref 0

(* A fresh scratch directory under [root], removed by [cleanup]. *)
let scratch_dir root =
  incr counter;
  let d = Filename.concat root (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter) in
  rm_rf d;
  mkdir_p d;
  live_dirs := d :: !live_dirs;
  d

let release_dir d =
  rm_rf d;
  live_dirs := List.filter (( <> ) d) !live_dirs

let rec waitpid_eintr pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* SIGKILL: the stop with no shutdown checkpoint that recovery_s
   measures (the server checkpoints only when asked, never on exit). *)
let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  waitpid_eintr pid;
  live_servers := List.filter (( <> ) pid) !live_servers

let cleanup () =
  List.iter kill_server !live_servers;
  List.iter rm_rf !live_dirs;
  live_dirs := []

let install_handlers () =
  at_exit cleanup;
  let on_signal code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143);
  (* a session writing to a server we just killed must see EPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

type server = { pid : int; port : int; out : in_channel }

(* Start [exe serve ARGS --port 0] and read the port from its banner
   ("sopr-server: mode M, listening on HOST:PORT..."). *)
let spawn_server exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((exe :: "serve" :: "--port" :: "0" :: args)) in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  live_servers := pid :: !live_servers;
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let banner =
    try input_line out
    with End_of_file ->
      failwith (Printf.sprintf "%s exited before listening" exe)
  in
  let marker = "listening on " in
  let rec find i =
    if i + String.length marker > String.length banner then
      failwith ("unexpected server banner: " ^ banner)
    else if String.sub banner i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let i = find 0 in
  let port =
    Scanf.sscanf (String.sub banner i (String.length banner - i)) "%[^:]:%d"
      (fun _ p -> p)
  in
  { pid; port; out }

let stop_server s =
  kill_server s.pid;
  close_in_noerr s.out
