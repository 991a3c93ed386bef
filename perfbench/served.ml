(* The serve-mixed workload: the real [indq serve] binary in its own process
   on a Unix socket, driven over the wire protocol through [Client] by one
   open-loop load generator on a single connection.

   Sessions arrive on a seeded schedule (evenly spaced, each gap jittered by
   up to 25%).  Each simulated user answers a seeded think time after its
   question was due, so every request's due time, and with it the order of
   requests, is fixed by the seed: a slower server changes the latencies,
   not the work.  Every request is
   timed from when it was due (or from when its question came back, if that
   was later), so a slow server shows up as latency instead of silently
   slowing the offered load. *)

module Generator = Indq_dataset.Generator
module Algo = Indq_core.Algo
module Utility = Indq_user.Utility
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec
module Span = Indq_obs.Span
module Trace = Indq_obs.Trace
module Indist = Indq_core.Indist
module Wire = Indq_server.Wire
module Client = Indq_server.Client
module Server = Indq_server.Server
module M = Measure

(* Every session: its own anti-correlated dataset, named in its hello. *)
let data_name = "anti_correlated"
let n = 1000
let d = 4
let s = 4
let q = 12
let eps = 0.05

(* Equal shares, assigned round-robin: Squeeze-u (delta = 0), Squeeze-u
   with delta > 0 (Algorithm 3), UH-Random and MinR. *)
let mix = [| (Algo.Squeeze_u, 0.); (Algo.Squeeze_u, 0.05); (Algo.Uh_random, 0.); (Algo.MinR, 0.) |]

let arrival_rate = 1.2 (* sessions per second *)
let think_min = 0.05
let think_max = 0.3
let away_round = (q / 2) + 1 (* the question every user steps away from *)
let away_min = 1.5
let away_max = 3.0
let max_hydrated = 6 (* above the ~4 live sessions: the LRU never evicts *)
(* Longer than any short think plus its reply, shorter than any time away:
   the idle sweep evicts exactly the sessions whose users stepped away. *)
let idle_timeout = 1.0
let request_timeout = 30.
(* Server starts timed for setup_s, and the least idle time before the
   next request is due that one may use. *)
let setup_spawns = 51
let start_gap = 0.06
(* The least idle time before a request is due in which the driver times
   the pace kernel (~0.6 ms). *)
let pace_slack = 0.003

type session = {
  index : int;
  id : string;
  algo : Algo.name;
  delta : float;
  data_seed : int;
  utility : Utility.t;
  think : Rng.t;
  arrival : float;  (** seconds after the load starts *)
  mutable waited : float;  (** Σ latencies the user sat through *)
  mutable failed : bool;
  mutable questions : int;
  mutable output : (int * float array) list option;
  mutable replied : float;  (** when the session's last reply arrived *)
}

let plan ~seed ~count =
  let rng = Rng.create seed in
  let clock = ref 0. in
  List.init count (fun index ->
      clock := !clock +. (Rng.in_range rng 0.75 1.25 /. arrival_rate);
      let algo, delta = mix.(index mod Array.length mix) in
      let data_seed = Rng.int rng 0x3FFFFFF in
      let utility = Utility.random rng ~d in
      let think = Rng.create (Rng.int rng 0x3FFFFFF) in
      {
        index;
        id = Printf.sprintf "u%d" index;
        algo;
        delta;
        data_seed;
        utility;
        think;
        arrival = !clock;
        waited = 0.;
        failed = false;
        questions = 0;
        output = None;
        replied = Float.neg_infinity;
      })

let hello sess =
  Wire.Hello
    {
      Wire.id = sess.id;
      algo = sess.algo;
      data = data_name;
      n;
      d;
      seed = sess.data_seed;
      s;
      q;
      eps;
      delta = sess.delta;
    }

(* The latency class of a session: its slot in [mix]. *)
let cls sess = sess.index mod Array.length mix

let config sess = { (Algo.default_config ~d) with Algo.s; q; eps; delta = sess.delta }

(* --- The server process -------------------------------------------------- *)

let children : int list ref = ref []

let reap pid =
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      wait (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 1000;
  children := List.filter (( <> ) pid) !children

(* Stop every server still running (normal exit or an escaping exception). *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap pid)
    !children

let read_line fd =
  let buf = Buffer.create 256 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> failwith "server closed the connection before replying"
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_bytes buf byte;
        go ()
      end
  in
  go ()

(* Spawn [indq serve] and time it until its first reply.  The socket is
   polled directly every 50 us: [Client.connect] sleeps 100 ms between
   attempts, which would round the start time to 100 ms steps, and even 1 ms
   steps split a ~2 ms start into two modes a step apart. *)
let spawn ~indq ~socket ~dir =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = M.now () in
  let pid =
    Unix.create_process indq
      [|
        indq; "serve"; "--socket"; socket; "--dir"; dir; "--fsync"; "batch:8";
        "--max-hydrated"; string_of_int max_hydrated; "--idle-timeout";
        Printf.sprintf "%g" idle_timeout; "--allow-shutdown";
      |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  children := pid :: !children;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.00005;
      connect (tries - 1)
  in
  let fd = connect 100_000 in
  let line = Bytes.of_string (Wire.request_to_line Wire.Stats ^ "\n") in
  ignore (Unix.write fd line 0 (Bytes.length line));
  let reply = read_line fd in
  let ready = M.now () -. t0 in
  Unix.close fd;
  (match Wire.parse_response reply with
  | Ok (Wire.R_stats _) -> ()
  | Ok _ | Error _ -> failwith ("unexpected first reply: " ^ reply));
  (pid, ready)

let shutdown ~socket pid =
  (match Client.connect ~attempts:1 (Server.Unix_path socket) with
  | c ->
    (try ignore (M.with_timeout 10. (fun () -> Client.rpc c Wire.Shutdown))
     with _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
    Client.close c
  | exception _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap pid

let stats conn =
  match Span.timed "perfbench.rpc.stats" (fun () -> Client.rpc conn Wire.Stats) with
  | Wire.R_stats { counters; round_latency } -> (counters, round_latency)
  | other -> failwith ("unexpected stats reply: " ^ Wire.response_to_line other)

(* --- The load generator ------------------------------------------------ *)

type request = Hello | Answer of { round : int; choice : int } | Bye

type event = { due : float; sess : session; req : request }

(* What one load pass observed, beyond the run record. *)
type pass = {
  late : float list;  (** send time minus due time, every request *)
  hydrating : float list;  (** answer latencies that hydrated (traced only) *)
  resident : float list;  (** answer latencies served from memory (traced) *)
  counters : (string * float) list;  (** server counter deltas over the load *)
  engine_p50 : float;  (** the server's own step histogram p50, seconds *)
  peak_rss : float;
  busy : float;  (** Σ latencies / elapsed, an upper bound on server busy *)
  live : float;  (** time-averaged sessions between hello and bye *)
  answers : int;
}

let insert queue ev =
  let rec go = function
    | [] -> [ ev ]
    | x :: rest as l -> if ev.due < x.due then ev :: l else x :: go rest
  in
  go queue

(* Most answers come after a short look, but every user steps away before
   answering question [away_round].  The idle sweep evicts exactly those
   sessions, so every session hydrates once, replaying the same number of
   answers: per-algorithm medians then do not jump with how many
   hydrations, or how deep a replay, a few sessions happened to draw. *)
let think_time sess ~round =
  if round = away_round then Rng.in_range sess.think away_min away_max
  else Rng.in_range sess.think think_min think_max

let op_name = function Hello -> "hello" | Answer _ -> "answer" | Bye -> "bye"

let drive ?(idle = fun ~until:_ -> ()) ~socket ~traced run sessions =
  let conn = ref (Client.connect ~attempts:3 (Server.Unix_path socket)) in
  let stats_before, _ = stats !conn in
  let last = ref stats_before in
  let late = ref [] and hydrating = ref [] and resident = ref [] in
  let answers = ref 0 and busy = ref 0. and probes = ref 0 in
  let start = M.now () in
  let live = ref 0 and live_area = ref 0. and live_at = ref start in
  let set_live k =
    let t = M.now () in
    live_area := !live_area +. (float_of_int !live *. (t -. !live_at));
    live_at := t;
    live := !live + k
  in
  let queue =
    ref
      (List.fold_left
         (fun q sess -> insert q { due = start +. sess.arrival; sess; req = Hello })
         [] sessions)
  in
  let schedule ev = queue := insert !queue ev in
  let fail sess why =
    if not sess.failed then begin
      sess.failed <- true;
      Printf.printf "fail session %s: %s\n%!" sess.id why
    end
  in
  let ask sess ~due ~round options =
    let options = Array.map Vec.of_array options in
    let choice = Utility.best_index sess.utility options in
    schedule { due = due +. think_time sess ~round; sess; req = Answer { round; choice } }
  in
  while !queue <> [] do
    let ev = List.hd !queue in
    queue := List.tl !queue;
    idle ~until:ev.due;
    if ev.due -. M.now () > pace_slack then M.pace_probe ();
    let wait = ev.due -. M.now () in
    if wait > 0. then Unix.sleepf wait;
    let sent = M.now () in
    (* A request cannot go out before its question came back; time it from
       the later of the two, so a slow reply is counted once. *)
    let due = Float.max ev.due ev.sess.replied in
    late := (sent -. due) :: !late;
    let sess = ev.sess in
    let req =
      match ev.req with
      | Hello -> hello sess
      | Answer { round; choice } -> Wire.Answer { id = sess.id; round; choice }
      | Bye -> Wire.Bye { id = sess.id }
    in
    match
      Span.timed ("perfbench.rpc." ^ op_name ev.req) (fun () ->
          M.with_timeout request_timeout (fun () -> Client.rpc !conn req))
    with
    | exception e ->
      fail sess (Printexc.to_string e);
      (try Client.close !conn with _ -> ());
      conn := Client.connect ~attempts:3 (Server.Unix_path socket)
    | reply -> (
      let got = M.now () in
      let latency = got -. due in
      sess.replied <- got;
      busy := !busy +. (got -. sent);
      (match ev.req with Hello -> set_live 1 | Bye -> set_live (-1) | Answer _ -> ());
      let hydrated =
        if not traced then false
        else begin
          let now_stats, _ = stats !conn in
          incr probes;
          let hydrations =
            Inproc.lookup now_stats "serve.hydrations"
            -. Inproc.lookup !last "serve.hydrations"
          in
          last := now_stats;
          hydrations > 0.
        end
      in
      (* A question or the final result answers a hello or an answer: that
         is the wait the user sees. *)
      (match (ev.req, reply) with
      | Hello, (Wire.R_ask _ | Wire.R_done _) ->
        run.M.first_question <- (cls sess, M.sample latency) :: run.M.first_question;
        sess.waited <- sess.waited +. latency
      | Answer _, (Wire.R_ask _ | Wire.R_done _) ->
        incr answers;
        run.M.rounds <- (cls sess, M.sample latency) :: run.M.rounds;
        sess.waited <- sess.waited +. latency;
        if traced then
          if hydrated then hydrating := latency :: !hydrating
          else resident := latency :: !resident
      | _ -> ());
      match (ev.req, reply) with
      | (Hello | Answer _), Wire.R_ask { round; options; _ } ->
        ask sess ~due:ev.due ~round options
      | (Hello | Answer _), Wire.R_done { questions; output; _ } ->
        sess.questions <- questions;
        sess.output <- Some output;
        schedule { due = ev.due; sess; req = Bye }
      | Bye, Wire.R_ok _ -> ()
      | _, other ->
        fail sess (Wire.response_to_line other);
        if ev.req <> Bye then schedule { due = ev.due; sess; req = Bye })
  done;
  let elapsed = M.now () -. start in
  set_live 0;
  let stats_after, latency = stats !conn in
  Client.close !conn;
  (* The request counter also saw the traced pass's stats probes and the
     closing stats call itself; take those back out. *)
  let counters =
    List.map
      (fun (k, v) ->
        let v = v -. Inproc.lookup stats_before k in
        (k, if k = "serve.requests" then v -. float_of_int (!probes + 1) else v))
      stats_after
  in
  {
    late = !late;
    hydrating = !hydrating;
    resident = !resident;
    counters;
    engine_p50 = latency.Wire.p50;
    peak_rss = 0.;
    busy = !busy /. elapsed;
    live = !live_area /. elapsed;
    answers = !answers;
  }

(* --- Output checks: audit and in-process replay ------------------------ *)

(* After the load, off the clock: rebuild each session's dataset from its
   hello exactly as the engine does, check I(f, eps) ⊆ S against it, and
   replay the session in-process with the same answers.  The replay must
   reproduce the served questions and output ids byte for byte.  Its
   minor-word count is what alloc_mwords_per_interview reports here, since
   the wire does not expose the server's: it counts the algorithm's
   allocation only, not that of Wire, Engine, Journal_store or the
   hydration.  When traced, the replay attributes the served work to the
   library's phases. *)
let check ?layers run sessions generated =
  List.iter
    (fun sess ->
      run.M.attempted <- run.M.attempted + 1;
      let problems = ref [] in
      let bad why = problems := why :: !problems in
      (match sess.output with
      | None ->
        bad "no result";
        M.record_transcript run ~index:sess.index ~questions:(-1) None
      | Some _ when sess.failed ->
        M.record_transcript run ~index:sess.index ~questions:(-1) None
      | Some pairs -> (
        let t0 = M.now () in
        let data =
          Span.timed "perfbench.generate" (fun () ->
              Generator.by_name data_name (Rng.create sess.data_seed) ~n ~d)
        in
        generated := (M.now () -. t0) :: !generated;
        let output = Audit.output_of_wire ~dim:d pairs in
        let ids = Audit.ids output in
        M.record_transcript run ~index:sess.index ~questions:sess.questions (Some ids);
        run.M.interviews <- (cls sess, sess.waited) :: run.M.interviews;
        run.M.questions <- float_of_int sess.questions :: run.M.questions;
        run.M.outputs <- float_of_int (List.length pairs) :: run.M.outputs;
        if Indist.has_false_negatives ~eps sess.utility ~data ~output then
          bad "output misses I(f,eps)";
        let user =
          { Inproc.index = sess.index; utility = sess.utility;
            session_seed = sess.data_seed + 1; full = true }
        in
        let ctx =
          { Inproc.algo = sess.algo; config = config sess;
            prepare = (fun () -> data); truth = data }
        in
        let events = ref [] in
        let replay () = Inproc.interview ctx user in
        match
          match layers with
          | None -> replay ()
          | Some _ -> Trace.with_sink (fun e -> events := e :: !events) replay
        with
        | exception e -> bad ("replay raised " ^ Printexc.to_string e)
        | o ->
          run.M.minor_words <- o.Inproc.words :: run.M.minor_words;
          if
            o.Inproc.questions <> sess.questions
            || Option.map Audit.ids o.Inproc.output <> Some ids
          then bad "in-process replay differs from the served result";
          Option.iter (fun l -> Inproc.add_interview l ~events:!events o)
            layers));
      (* One failure per session, whatever went wrong with it. *)
      if sess.failed || !problems <> [] then begin
        run.M.failed <- run.M.failed + 1;
        List.iter
          (fun why -> Printf.printf "fail session %s: %s\n%!" sess.id why)
          (List.rev !problems)
      end)
    sessions

(* --- The workload ------------------------------------------------------- *)

type result = {
  run : M.run;
  setup : M.sample list;  (** server starts (untraced runs only) *)
  peak_rss : float;
  layers : M.metric list;
}

let one_pass ?idle ~indq ~work ~name ~traced ~seed ~count () =
  let socket = Filename.concat work (name ^ ".sock") in
  let dir = Filename.concat work (name ^ "-journals") in
  let pid, _ = spawn ~indq ~socket ~dir in
  let run = M.new_run () in
  let sessions = plan ~seed ~count in
  let pass = drive ?idle ~socket ~traced run sessions in
  let peak = Option.value ~default:0. (M.peak_rss_mb (Some pid)) in
  shutdown ~socket pid;
  (run, sessions, { pass with peak_rss = peak })

let tail_diag name p samples =
  Option.iter (fun v -> M.diag name (M.ms v) "ms") (M.tail p samples)

let pass_diags pass =
  tail_diag "gen.late_ms.p90" 90. pass.late;
  M.diag "serve.busy_share" pass.busy "ratio";
  M.diag "serve.live_sessions" pass.live "count";
  M.diag "serve.engine_ms.p50" (M.ms pass.engine_p50) "ms";
  List.iter
    (fun k -> M.diag k (Inproc.lookup pass.counters k) "count")
    [ "serve.hydrations"; "serve.evictions"; "serve.journal_syncs"; "serve.requests" ]

(* Set-up time is server start: spawn until the first reply, the median of
   [setup_spawns] starts of their own.  One start takes a few milliseconds,
   and the host's speed drifts over seconds, so the starts are spread over
   the whole load, one in an idle gap every [spacing] seconds, and the
   median averages the drift as the round latencies do.  [idle] is the
   load generator's hook; [finish] tops up the starts after the load. *)
let start_sampler ~indq ~work ~spacing =
  let samples = ref [] and next = ref 0. in
  let start () =
    let k = List.length !samples in
    let socket = Filename.concat work (Printf.sprintf "start-%d.sock" k) in
    let dir = Filename.concat work (Printf.sprintf "start-%d" k) in
    M.pace_probe ();
    let pid, ready = spawn ~indq ~socket ~dir in
    shutdown ~socket pid;
    samples := M.sample ready :: !samples
  in
  let idle ~until =
    let now = M.now () in
    if List.length !samples < setup_spawns && now >= !next && until -. now > start_gap
    then begin
      start ();
      next := now +. spacing
    end
  in
  let finish () =
    while List.length !samples < setup_spawns do start () done;
    !samples
  in
  (idle, finish)

let serve_mixed ~indq ~seed ~seconds ~traced ~work ~write_events =
  (* Sessions arrive over ~85% of the run; the rest drains the tail. *)
  let arrivals = float_of_int seconds *. 0.85 in
  let count = max 8 (int_of_float (arrival_rate *. arrivals)) in
  let generated = ref [] in
  (* Warm-up: one untimed session through a throwaway server. *)
  let warm, warm_sessions, _ =
    one_pass ~indq ~work ~name:"warm" ~traced:false ~seed:(seed + 7919) ~count:1 ()
  in
  check warm warm_sessions (ref []);
  if not traced then begin
    let idle, finish =
      start_sampler ~indq ~work ~spacing:(arrivals /. float_of_int setup_spawns)
    in
    let run, sessions, pass =
      one_pass ~idle ~indq ~work ~name:"load" ~traced:false ~seed ~count ()
    in
    let setup = finish () in
    check run sessions generated;
    run.M.failed <- run.M.failed + warm.M.failed;
    pass_diags pass;
    M.diag "serve.hydration_ratio"
      (Inproc.lookup pass.counters "serve.hydrations" /. float_of_int (max 1 pass.answers))
      "ratio";
    { run; setup; peak_rss = pass.peak_rss; layers = [] }
  end
  else begin
    let count = max 4 (count / 2) in
    let untraced, u_sessions, _ =
      one_pass ~indq ~work ~name:"untraced" ~traced:false ~seed ~count ()
    in
    check untraced u_sessions generated;
    Span.enable ();
    let traced_run, t_sessions, pass =
      one_pass ~indq ~work ~name:"traced" ~traced:true ~seed ~count ()
    in
    let l = Inproc.new_layers () in
    check ~layers:l traced_run t_sessions generated;
    Span.disable ();
    write_events l.Inproc.events;
    let completed =
      List.length (List.filter (fun s -> s.output <> None && not s.failed) t_sessions)
    in
    l.Inproc.interviews <- completed;
    l.Inproc.rounds <- pass.answers;
    l.Inproc.counters <- pass.counters;
    let pace = M.pacer () in
    let p50 r = Option.value ~default:0. (M.typical (M.times pace r.M.rounds)) in
    M.diag "round_ms.p50.untraced" (M.ms (p50 untraced)) "ms";
    M.diag "round_ms.p50.traced" (M.ms (p50 traced_run)) "ms";
    Inproc.print_attribution l;
    pass_diags pass;
    let med xs = M.ms (Option.value ~default:0. (M.median xs)) in
    M.diag "serve.answer_hydrating_ms.p50" (med pass.hydrating) "ms";
    M.diag "serve.answer_resident_ms.p50" (med pass.resident) "ms";
    let c k = Inproc.lookup pass.counters k in
    let run = Inproc.merge_runs untraced traced_run in
    run.M.failed <- run.M.failed + warm.M.failed;
    {
      run;
      setup = [];
      peak_rss = pass.peak_rss;
      layers =
        M.metric "dataset.generate_ms" "ms" (med !generated)
        :: M.metric "trace.overhead_ms" "ms" (M.ms (p50 traced_run -. p50 untraced))
        :: M.metric "serve.hydrations" "count" (c "serve.hydrations")
        :: M.metric "serve.evictions" "count" (c "serve.evictions")
        :: M.metric "serve.hydration_ratio" "ratio"
             (c "serve.hydrations" /. float_of_int (max 1 pass.answers))
        :: M.metric "serve.journal_syncs" "count" (c "serve.journal_syncs")
        :: M.metric "serve.sync_failures" "count" (c "serve.sync_failures")
        :: M.metric "serve.requests" "count" (c "serve.requests")
        :: M.metric "serve.wire_errors" "count" (c "serve.wire_errors")
        :: Inproc.layer_metrics l;
    }
  end
