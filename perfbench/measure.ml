(* Clocks, order statistics, the host-speed reference kernel, the span
   recorder and a minimal JSON printer — the measuring instruments the
   workloads share. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 1]. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))
  end

let median samples = percentile samples 0.5

let median_list l = median (Array.of_list l)

(* Mean of the samples between the 5th and 95th percentile: for
   microsecond timings, where the clock's 1 us step would make a median
   repeat exactly from run to run. *)
let trimmed_mean samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  let lo = n / 20 and hi = n - (n / 20) in
  if hi <= lo then nan
  else Array.fold_left ( +. ) 0. (Array.sub a lo (hi - lo)) /. float_of_int (hi - lo)

let sum = Array.fold_left ( +. ) 0.

(* A growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* ------------------------------------------------------------------ *)
(* Host-speed reference kernel                                         *)

(* A fixed unit of work the benchmark owns, run between chunks of
   the workload: pointer chases around one random cycle through a
   cache-resident ring (256 KiB) and one through a ring far larger than
   the caches (16 MiB), each step mixed into a multiply-xorshift hash.
   Both rings live outside the OCaml heap and the kernel allocates
   nothing, so its time is independent of the heap the workload has
   built; it tracks the host's momentary CPU speed and memory latency,
   the two things the engine's pointer-chasing code waits on.  CPU
   timings are reported as (raw / kernel) * [nominal_kernel_s], so a
   slow episode of the host scales both alike. *)
let nominal_kernel_s = 0.004

let ring n =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  (* Sattolo's shuffle with a fixed LCG: one cycle through all slots *)
  let x = ref 12345 in
  for i = n - 1 downto 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x mod i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let small_ring = ring (1 lsl 15)
let large_ring = ring (1 lsl 21)

(* Follow the cycle [steps] times from [pos]; returns the end position
   and the hash. *)
let chase a pos steps h =
  let j = ref pos and h = ref h in
  for _ = 1 to steps do
    j := Bigarray.Array1.unsafe_get a !j;
    h := (!h lxor !j) * 0x2545F491;
    h := !h lxor (!h lsr 29)
  done;
  (!j, !h)

(* The large chase resumes where the previous run on that core
   stopped: restarting at slot 0 would revisit the same 8 Ki lines,
   which the previous run left in L2, and back-to-back runs would read
   as a fast host. *)
let kernel pos =
  let _, h = chase small_ring 0 (1 lsl 18) 0 in
  let p, h = chase large_ring !pos (1 lsl 13) h in
  pos := p;
  h

let positions = [| ref 0; ref (1 lsl 20) |]

let timed_kernel pos =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel pos));
  now () -. t0

(* The kernel runs on two cores at once and reports the mean: the
   server workloads keep both cores busy, and the two can differ in
   speed (a virtual core may share its physical core with another
   tenant).  The second domain lives only for the run: an idle extra
   domain would take part in every stop-the-world minor collection of
   the workload. *)
let time_kernel () =
  let d = Domain.spawn (fun () -> timed_kernel positions.(1)) in
  let a = timed_kernel positions.(0) in
  (a +. Domain.join d) /. 2.

(* Calibrates chunked timings: [tick] runs the kernel after a chunk
   (all sessions idle) and remembers the pair; [scales] gives, per
   chunk, nominal / (median kernel time over the chunk's neighbours)
   — host-speed episodes last seconds, a chunk tens of milliseconds,
   so the window smooths one-off preemptions of a single kernel run. *)
module Calib = struct
  type t = { mutable chunks : float list; mutable kernels : float list }

  let create () = { chunks = []; kernels = [] }

  let tick t ~chunk_s =
    t.chunks <- chunk_s :: t.chunks;
    t.kernels <- time_kernel () :: t.kernels

  let chunks t = Array.of_list (List.rev t.chunks)
  let kernels t = Array.of_list (List.rev t.kernels)

  let scales t =
    let k = kernels t in
    let n = Array.length k in
    Array.init n (fun i ->
        let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
        nominal_kernel_s /. median (Array.sub k lo (hi - lo + 1)))
end

(* One calibrated timing of [f], for set-up and recovery, which run
   once per repeat: scaled by the median of three kernel runs before
   and three after, since a single kernel run is itself noisy. *)
let calibrated f =
  let kernels () = List.init 3 (fun _ -> time_kernel ()) in
  let before = kernels () in
  let t0 = now () in
  let r = f () in
  let raw = now () -. t0 in
  let k = median_list (before @ kernels ()) in
  (r, raw, raw *. nominal_kernel_s /. k, k)

(* ------------------------------------------------------------------ *)
(* Peak resident set size                                              *)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> nan
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* Spans record name, start, end, parent and request id; they stay in
   memory until [write] and self time is a span's duration minus its
   children's.  Recording is switched per tracer, so the same pipeline
   code runs with spans on and off for the overhead measurement. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for a root *)
    req : int;
    start : float;
    stop : float;
  }

  type t = {
    on : bool;
    mutable next : int;
    mutable spans : span list;
    mutable stack : int list;
  }

  let create ~on = { on; next = 0; spans = []; stack = [] }

  let with_span t ~req name f =
    if not t.on then f ()
    else begin
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let start = now () in
      let finish () =
        let stop = now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; parent; req; start; stop } :: t.spans
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  (* Name a span by what the call turned out to do (a statement-cache
     lookup that had to compile). *)
  let rename_last t name =
    match t.spans with
    | s :: rest when t.on -> t.spans <- { s with name } :: rest
    | _ -> ()

  let spans t = List.rev t.spans

  (* name -> (count, total self seconds, total duration seconds) *)
  let self_times t =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          let d = s.stop -. s.start in
          Hashtbl.replace child s.parent
            (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
      t.spans;
    let acc = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let d = s.stop -. s.start in
        let self = d -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
        let n, st, dt =
          Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name)
        in
        Hashtbl.replace acc s.name (n + 1, st +. self, dt +. d))
      t.spans;
    acc

  let write t path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
          s.id s.name s.parent s.req s.start s.stop)
      (spans t)
end

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_json = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> json_string s
  | Bool b -> string_of_bool b
  | Arr l -> "[" ^ String.concat ", " (List.map to_json l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_string k ^ ": " ^ to_json v) kv)
    ^ "}"

let floats a = Arr (Array.to_list (Array.map (fun f -> Num f) a))
