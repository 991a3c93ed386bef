(* Raw-sample statistics, result records and process probes shared by every
   perfbench workload.

   Every percentile here is computed from the driver's own clock readings,
   never from [Indq_obs.Histogram]: its log buckets are 2^(1/4) apart, about
   19% wide, which is coarser than any useful regression bound. *)

let now = Indq_util.Timer.wall

let ms seconds = seconds *. 1000.

(* --- Raw-sample statistics ----------------------------------------------- *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* The median of the raw samples, averaging the two middle values when the
   count is even (so a pair of samples reports their mean, not the lower). *)
let median samples =
  match sorted samples with
  | [||] -> None
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then Some a.(n / 2)
    else Some ((a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

(* A tail percentile is reported only where at least 10 samples lie beyond
   it: p90 needs 100 samples and p99 needs 1000. *)
let min_samples_for p = int_of_float (Float.ceil (10. /. (1. -. (p /. 100.)) -. 1e-9))

(* Nearest-rank percentile [p] (in (50, 100)) of the raw samples, or [None]
   when the sample is too small to say anything about that tail. *)
let tail p samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 || n < min_samples_for p then None
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    Some a.(max 0 (min (n - 1) (rank - 1)))

let mean = function
  | [] -> None
  | xs -> Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

(* Latency samples are tagged with a class: the algorithm that produced
   them.  A mixed workload's pooled latencies are multi-modal (a Squeeze-u
   round costs well under a millisecond, a MinR round tens), so a pooled
   median falls in the gap between modes and jumps between them from run to
   run.  [typical] takes the median within each class and combines the
   class medians by geometric mean; with a single class it is that class's
   median. *)
let values samples = List.map snd samples

let typical samples =
  let classes = List.sort_uniq Int.compare (List.map fst samples) in
  let medians =
    List.filter_map
      (fun c ->
        median (List.filter_map (fun (k, v) -> if k = c then Some v else None) samples))
      classes
  in
  match medians with
  | [] -> None
  | ms when List.exists (fun m -> m <= 0.) ms -> None
  | ms ->
    Some
      (Float.exp
         (List.fold_left (fun acc m -> acc +. Float.log m) 0. ms
         /. float_of_int (List.length ms)))

(* --- Per-run accumulation ------------------------------------------------ *)

(* A latency sample: its wall time, and how many pace readings (see
   [pacer] below) were taken before it. *)
type sample = { wall : float; at : int }

(* One workload run's user-facing record.  Times are in seconds. *)
type run = {
  mutable attempted : int;  (** interviews started *)
  mutable failed : int;  (** exceptions, wire errors, timeouts, audit misses *)
  mutable first_question : (int * sample) list;  (** (class, sample) *)
  mutable rounds : (int * sample) list;
  mutable interviews : (int * float) list;  (** complete interviews' wall waits *)
  mutable questions : float list;  (** per completed interview *)
  mutable outputs : float list;  (** |S| per completed interview *)
  mutable minor_words : float list;  (** per completed interview *)
  transcript : Buffer.t;  (** (questions, output ids) of every interview *)
}

let new_run () =
  {
    attempted = 0;
    failed = 0;
    first_question = [];
    rounds = [];
    interviews = [];
    questions = [];
    outputs = [];
    minor_words = [];
    transcript = Buffer.create 4096;
  }

(* --- Host pace -------------------------------------------------------------- *)

(* The shared host's speed moves in steps of 30-50% that last from seconds
   to minutes, which no run length that fits the run budget averages away,
   so every time is reported paced: scaled to one fixed host speed.

   Before every timed call the driver times [pace_kernel]: dense float row
   operations on a 100x100 matrix (80 KB, run once untimed first so that it
   is in cache and its time does not depend on what the program left there)
   followed by a dependent chain of integer and float arithmetic in
   registers.  In the slow steps the first part slows by up to 1.7x and the
   second not at all; the program, which does both kinds of work, slows in
   between, as their sum does.  A sample's paced time is its wall time
   times [pace_nominal] over the median of the [pace_window] kernel times
   around it.

   The kernel is benchmark code, the same on both sides of a comparison,
   and it runs on its own data, so a change to the program moves paced
   times as it moves wall times.  The wall-time medians are printed as
   [*.wall] diagnostics, and [host.pace] is the median pace factor.
   perfbench/CATALOG.md ("Paced times") gives the spreads pacing bought and
   the probes that did not track the host. *)

(* A dependent chain of [n] integer hash and float recurrence steps: no
   memory traffic and no allocation. *)
let chain n =
  let h = ref 0x9E3779B9 and x = ref 0.5 in
  for i = 1 to n do
    h := (!h lxor i) * 0x01000193 land 0x3FFFFFFF;
    x := (!x *. 3.7 *. (1. -. !x)) +. (float_of_int (!h land 7) *. 1e-12)
  done;
  !x

let pace_matrix = Array.make_matrix 100 100 1.

let row_operations () =
  let m = pace_matrix in
  for i = 0 to 99 do
    Array.fill m.(i) 0 100 1.
  done;
  for k = 0 to 29 do
    let mk = m.(k) in
    for i = 0 to 99 do
      let mi = m.(i) in
      let f = mi.(k) *. 1e-3 in
      for j = 0 to 99 do
        Array.unsafe_set mi j (Array.unsafe_get mi j -. (f *. Array.unsafe_get mk j))
      done
    done
  done

let pace_kernel () =
  row_operations ();
  ignore (Sys.opaque_identity (chain 60_000))

(* The kernel's time, in seconds, at the reference speed: about its time
   on the 2-vCPU reference machine in a fast step.  It only sets the scale
   of paced times. *)
let pace_nominal = 0.6e-3

(* Every reading, newest first. *)
let pace_readings = ref []

let pace_count = ref 0

(* Warm the matrix, then time the kernel. *)
let pace_probe () =
  row_operations ();
  let t0 = now () in
  pace_kernel ();
  pace_readings := (now () -. t0) :: !pace_readings;
  incr pace_count

let sample wall = { wall; at = !pace_count }

(* The pace factor of a sample taken after [at] readings: [pace_nominal]
   over the median of the [pace_window] readings around it, the last 8
   before it and the first 7 after. *)
let pace_window = 15

let factor readings at =
  let n = Array.length readings in
  let lo = max 0 (at - ((pace_window + 1) / 2)) and hi = min n (at + (pace_window / 2)) in
  match median (Array.to_list (Array.sub readings lo (max 0 (hi - lo)))) with
  | Some m when m > 0. -> pace_nominal /. m
  | _ -> 1.

(* Paced times from the readings taken so far: a sample's wall time times
   its pace factor. *)
let pacer () =
  let readings = Array.of_list (List.rev !pace_readings) in
  fun s -> s.wall *. factor readings s.at

(* The median pace factor over every reading, printed as [host.pace]. *)
let pace_median () =
  let readings = Array.of_list (List.rev !pace_readings) in
  median (List.init (Array.length readings) (fun i -> factor readings (i + 1)))

let times time samples = List.map (fun (c, s) -> (c, time s)) samples

let wall s = s.wall

(* --- Transcript ------------------------------------------------------------- *)

(* Append one interview to the transcript the output digest is taken over:
   its index, question count and output ids in output order.  An interview
   the user left early records its question count and no output. *)
let record_transcript run ~index ~questions ids =
  Printf.bprintf run.transcript "%d q=%d out=" index questions;
  (match ids with
  | None -> Buffer.add_string run.transcript "-"
  | Some ids ->
    Buffer.add_string run.transcript
      (String.concat "," (List.map string_of_int ids)));
  Buffer.add_char run.transcript '\n'

let digest run = Digest.to_hex (Digest.string (Buffer.contents run.transcript))

(* --- Metrics and the result line ------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: exactly the four keys the benchmark
   contract names, with every value printed at full precision. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (number m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* Human-readable diagnostic lines precede the result line. *)
let diag name value unit_ =
  Printf.printf "diag %-40s %s %s\n%!" name (number value) unit_

(* --- Process probes --------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a process, in MiB, from /proc. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf_opt
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* A fixed pure-OCaml kernel ([chain] for 20M steps, no memory traffic)
   whose wall time tracks the speed of the host's core, not the code under
   test.  Timed before and after each run and printed as [host.ref_ms], it
   shows when the shared machine's core, not the program, slowed a run.  It
   does not see the cache-bound slow steps that [pacer] corrects for. *)
let host_probe () =
  let t0 = now () in
  let x = chain 20_000_000 in
  let elapsed = now () -. t0 in
  if Float.is_nan x then -1. else ms elapsed

(* CPU time the hypervisor gave to other guests while this one's CPUs
   wanted to run ("steal"), from the first line of /proc/stat: (steal,
   busy) in clock ticks summed over the CPUs, where busy is user, nice,
   system, irq, softirq and steal time.  Steal over busy across a run,
   printed as [host.steal_share], tracks how much of its wall time the
   shared host took away; the fixed kernel of [host_probe] only samples
   the host at the run's two ends. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic -> (
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    match Option.map (String.split_on_char ' ') line with
    | Some ("cpu" :: fields) -> (
      match List.filter_map int_of_string_opt fields with
      | user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
        Some (float_of_int steal, float_of_int (user + nice + system + irq + softirq + steal))
      | _ -> None)
    | _ -> None)

(* --- Timeouts ------------------------------------------------------------------ *)

exception Timeout

(* Run [f] under a wall-clock alarm: [Timeout] is raised from whatever [f]
   is blocked in once [seconds] pass. *)
let with_timeout seconds f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout))
  in
  let cancel () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm previous
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = seconds });
  Fun.protect ~finally:cancel f

(* --- Work directory ---------------------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
