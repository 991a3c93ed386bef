(* The in-process workloads, house-mind and anti-store: closed loops of
   simulated users driving [Session.start]/[Session.answer] one user at a
   time, each answering as soon as asked with [Utility.best_index] on a
   seeded hidden linear utility. *)

module Dataset = Indq_dataset.Dataset
module Realistic = Indq_dataset.Realistic
module Generator = Indq_dataset.Generator
module Artifact = Indq_dominance.Artifact
module Session = Indq_core.Session
module Algo = Indq_core.Algo
module Utility = Indq_user.Utility
module Rng = Indq_util.Rng
module Span = Indq_obs.Span
module Trace = Indq_obs.Trace
module Profile = Indq_obs.Profile
module Counter = Indq_obs.Counter
module Indist = Indq_core.Indist
module M = Measure

type user = {
  index : int;
  utility : Utility.t;
  session_seed : int;
  full : bool;  (** [false]: the user leaves after the first question *)
}

let make_user rng ~d ~index ~full =
  let utility = Utility.random rng ~d in
  let session_seed = Rng.int rng 0x3FFFFFFF in
  { index; utility; session_seed; full }

(* [full] complete interviews, drawn from the [complete] stream, with
   [first_only] first-question-only users from the [first] stream spread
   evenly between them. *)
let plan ~complete ~first ~d ~full ~first_only =
  let users = ref [] and index = ref 0 and added = ref 0 in
  let add full =
    let rng = if full then complete else first in
    users := make_user rng ~d ~index:!index ~full :: !users;
    incr index
  in
  let add_first_only_up_to k =
    while !added < k do
      add false;
      incr added
    done
  in
  for f = 1 to full do
    add true;
    add_first_only_up_to (f * first_only / full)
  done;
  add_first_only_up_to first_only;
  List.rev !users

(* What a workload hands the interview loop. *)
type context = {
  algo : Algo.name;
  config : Algo.config;
  prepare : unit -> Dataset.t;
      (** work the user waits for before [Session.start] (the dataset the
          session runs on) *)
  truth : Dataset.t;  (** the full dataset I(f, eps) is checked against *)
}

type outcome = {
  first_question : M.sample;
  rounds : M.sample list;
  questions : int;
  output : Dataset.t option;
  words : float;  (** minor words allocated inside the library calls *)
  majors : int;
}

let interview ctx user =
  let words = ref 0. in
  let counted f =
    let before = Gc.minor_words () in
    let result = f () in
    words := !words +. (Gc.minor_words () -. before);
    result
  in
  let majors_before = (Gc.quick_stat ()).Gc.major_collections in
  M.pace_probe ();
  let t0 = M.now () in
  let data = counted ctx.prepare in
  let session =
    counted (fun () ->
        Span.timed "perfbench.session_start" (fun () ->
            Session.start ctx.algo ctx.config ~data
              ~rng:(Rng.create user.session_seed)))
  in
  let first_question = M.sample (M.now () -. t0) in
  let rounds = ref [] in
  let rec loop () =
    match Session.current session with
    | Session.Asking options when user.full ->
      let choice = Utility.best_index user.utility options in
      M.pace_probe ();
      let t = M.now () in
      counted (fun () ->
          Span.timed "perfbench.session_answer" (fun () ->
              Session.answer session choice));
      rounds := M.sample (M.now () -. t) :: !rounds;
      loop ()
    | Session.Asking _ | Session.Finished _ -> ()
  in
  loop ();
  {
    first_question;
    rounds = List.rev !rounds;
    questions = Session.questions_asked session;
    output = Option.map (fun r -> r.Algo.output) (Session.result session);
    words = !words;
    majors = (Gc.quick_stat ()).Gc.major_collections - majors_before;
  }

(* --- Per-layer accumulation over the traced interviews -------------------- *)

type layers = {
  mutable interviews : int;  (** completed traced interviews *)
  mutable rounds : int;
  mutable counters : (string * float) list;  (** summed deltas *)
  mutable self : (string * float) list;  (** summed self seconds per phase *)
  mutable profile_total : float;
  mutable waited : float;  (** the driver's own clock over the same calls *)
  mutable words : float;
  mutable majors : int;
  mutable events : Trace.event list;  (** every span event, newest first *)
}

let new_layers () =
  {
    interviews = 0;
    rounds = 0;
    counters = [];
    self = [];
    profile_total = 0.;
    waited = 0.;
    words = 0.;
    majors = 0;
    events = [];
  }

let add_assoc acc deltas =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some old -> (k, old +. v) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    acc deltas

let lookup assoc k = Option.value ~default:0. (List.assoc_opt k assoc)

(* The compute time the user waited through in one interview. *)
let waited o =
  o.first_question.M.wall +. List.fold_left (fun acc r -> acc +. r.M.wall) 0. o.rounds

(* Add one traced interview's self times, clock and allocation to [l];
   [events] are its span events, newest first. *)
let add_interview l ~events o =
  let profile = Profile.of_events (List.rev events) in
  l.self <-
    add_assoc l.self
      (List.map (fun p -> (p.Profile.phase_name, p.Profile.self)) profile.Profile.phases);
  l.profile_total <- l.profile_total +. profile.Profile.total;
  l.waited <- l.waited +. waited o;
  l.words <- l.words +. o.words;
  l.majors <- l.majors + o.majors;
  l.events <- List.rev_append (List.rev events) l.events

(* Run [users] in order, recording into [run]; with [layers], also trace
   each interview and attribute its work per layer.  An exception anywhere
   in an interview, [prepare] included, fails that interview only.
   [between] runs before each user, off the interview's clock. *)
let measure ?layers ?(between = ignore) ctx ~eps run users =
  List.iter
    (fun user ->
      between ();
      run.M.attempted <- run.M.attempted + 1;
      let before = Counter.snapshot () in
      let events = ref [] in
      let attempt () = interview ctx user in
      match
        match layers with
        | None -> attempt ()
        | Some _ -> Trace.with_sink (fun e -> events := e :: !events) attempt
      with
      | exception e ->
        run.M.failed <- run.M.failed + 1;
        Printf.printf "fail user %d: %s\n%!" user.index (Printexc.to_string e);
        M.record_transcript run ~index:user.index ~questions:(-1) None
      | o ->
        run.M.first_question <- (0, o.first_question) :: run.M.first_question;
        if not user.full then
          M.record_transcript run ~index:user.index ~questions:o.questions None
        else begin
          run.M.rounds <- List.rev_append (List.map (fun r -> (0, r)) o.rounds) run.M.rounds;
          match o.output with
          | None ->
            run.M.failed <- run.M.failed + 1;
            Printf.printf "fail user %d: interview did not finish\n%!" user.index;
            M.record_transcript run ~index:user.index ~questions:o.questions None
          | Some output ->
            run.M.interviews <- (0, waited o) :: run.M.interviews;
            run.M.questions <- float_of_int o.questions :: run.M.questions;
            run.M.outputs <- float_of_int (Dataset.size output) :: run.M.outputs;
            run.M.minor_words <- o.words :: run.M.minor_words;
            M.record_transcript run ~index:user.index ~questions:o.questions
              (Some (Audit.ids output));
            if Indist.has_false_negatives ~eps user.utility ~data:ctx.truth ~output
            then begin
              run.M.failed <- run.M.failed + 1;
              Printf.printf "fail user %d: output misses I(f,eps)\n%!" user.index
            end;
            Option.iter
              (fun l ->
                l.interviews <- l.interviews + 1;
                l.rounds <- l.rounds + List.length o.rounds;
                l.counters <- add_assoc l.counters (Counter.since before);
                add_interview l ~events:!events o)
              layers
        end)
    users

(* The per-layer metrics of the traced interviews, by the names of the
   metric catalog (perfbench/CATALOG.md).  Counts are per completed
   interview unless the name says otherwise. *)
let layer_metrics l =
  let n = float_of_int (max 1 l.interviews) in
  let c k = lookup l.counters k in
  let per_interview k = c k /. n in
  let self_ms phase = M.ms (lookup l.self phase) /. n in
  let hits =
    c "prune.witness_hits" +. c "prune.store_hits" +. c "prune.scalar_hits"
    +. c "prune.corner_hits"
  in
  let decided = hits +. c "prune.lp_calls" in
  [
    M.metric "skyline.path_store" "count" (per_interview "skyline.path_store");
    M.metric "skyline.path_rtree" "count" (per_interview "skyline.path_rtree");
    M.metric "skyline.path_sfs" "count" (per_interview "skyline.path_sfs");
    M.metric "rtree.nodes_visited" "count" (per_interview "rtree.nodes_visited");
    M.metric "real_points.skyline.self_ms" "ms" (self_ms "real_points.skyline");
    M.metric "real_points.pick_display.self_ms" "ms"
      (self_ms "real_points.pick_display");
    M.metric "real_points.lemma2_prune.self_ms" "ms"
      (self_ms "real_points.lemma2_prune");
    M.metric "prune.lp_calls" "count" (per_interview "prune.lp_calls");
    M.metric "prune.witness_hits" "count" (per_interview "prune.witness_hits");
    M.metric "prune.store_hits" "count" (per_interview "prune.store_hits");
    M.metric "prune.scalar_hits" "count" (per_interview "prune.scalar_hits");
    M.metric "prune.hit_ratio" "ratio" (if decided > 0. then hits /. decided else 0.);
    M.metric "poly.cache_hits" "count" (per_interview "poly.cache_hits");
    M.metric "region.halfspaces" "count/round"
      (c "region.halfspaces" /. float_of_int (max 1 l.rounds));
    M.metric "lp.dual_pivots" "count" (per_interview "lp.dual_pivots");
    M.metric "lp.dual_reopt" "count" (per_interview "lp.dual_reopt");
    M.metric "lp.solves" "count" (per_interview "lp.solves");
    M.metric "lp.failures" "count" (per_interview "lp.failures");
    M.metric "gc.minor_mwords_per_round" "Mwords"
      (l.words /. 1e6 /. float_of_int (max 1 l.rounds));
    M.metric "gc.major_collections_per_interview" "count"
      (float_of_int l.majors /. n);
  ]

(* Self times telescope: their sum over every phase equals the traced wall
   time of the driver's root spans, which the driver also clocked itself. *)
let print_attribution l =
  M.diag "trace.self_sum_ms" (M.ms l.profile_total) "ms";
  M.diag "trace.driver_wait_ms" (M.ms l.waited) "ms";
  List.iter
    (fun (phase, self) -> M.diag ("self." ^ phase) (M.ms self) "ms")
    (List.sort compare l.self)

(* --- Workloads ----------------------------------------------------------------- *)

type workload_result = {
  run : M.run;
  setup : M.sample list;  (** one per set-up repeat *)
  layers : M.metric list;  (** traced runs only *)
}

let timed_span name f =
  let t0 = M.now () in
  let r = Span.timed name f in
  (r, M.now () -. t0)

let warm_up ctx ~eps rng ~d ~full =
  let w = M.new_run () in
  measure ctx ~eps w [ make_user rng ~d ~index:(-1) ~full ];
  w.M.failed

(* Traced runs measure the same users twice, untraced then traced, and
   report the difference of the two round_ms.p50 as the tracing overhead. *)
let traced_passes ?between ctx ~eps users =
  let untraced = M.new_run () in
  measure ?between ctx ~eps untraced users;
  Span.enable ();
  let l = new_layers () in
  let traced = M.new_run () in
  measure ~layers:l ?between ctx ~eps traced users;
  Span.disable ();
  let pace = M.pacer () in
  let p50 r = Option.value ~default:0. (M.typical (M.times pace r.M.rounds)) in
  let overhead = M.ms (p50 traced -. p50 untraced) in
  M.diag "round_ms.p50.untraced" (M.ms (p50 untraced)) "ms";
  M.diag "round_ms.p50.traced" (M.ms (p50 traced)) "ms";
  print_attribution l;
  (untraced, traced, l, overhead)

(* A traced run's record: every interview of both passes counts toward
   attempted and failed; the samples and the transcript are the traced
   pass's. *)
let merge_runs a b =
  let r = M.new_run () in
  r.M.attempted <- a.M.attempted + b.M.attempted;
  r.M.failed <- a.M.failed + b.M.failed;
  r.M.first_question <- b.M.first_question;
  r.M.rounds <- b.M.rounds;
  r.M.interviews <- b.M.interviews;
  r.M.questions <- b.M.questions;
  r.M.outputs <- b.M.outputs;
  r.M.minor_words <- b.M.minor_words;
  Buffer.add_buffer r.M.transcript b.M.transcript;
  r

let house_mind ~seed ~seconds ~traced ~write_events =
  (* The House stand-in is one fixed dataset, as the paper's is. *)
  let house_seed = 2024 in
  let setup = ref [] in
  let generate () =
    M.pace_probe ();
    let data, t =
      timed_span "perfbench.generate" (fun () -> Realistic.house (Rng.create house_seed))
    in
    setup := M.sample t :: !setup;
    data
  in
  (* Set-up is one House generation, ~20 ms.  It is timed again before
     every user rather than in one burst, so that its median spans the
     host's drift in speed over the run, as the interview times do. *)
  let generate_ms pace = M.ms (Option.get (M.median (List.map pace !setup))) in
  let between () = ignore (Sys.opaque_identity (generate ())) in
  let data = generate () in
  let d = Dataset.dim data in
  let config =
    { (Algo.default_config ~d) with Algo.s = 6; q = 18; eps = 0.05; trials = 10 }
  in
  let eps = config.Algo.eps in
  let ctx = { algo = Algo.MinD; config; prepare = (fun () -> data); truth = data } in
  (* A complete MinD interview on House costs 6-12 s on the reference
     machine, so a run holds only two.  Drawn from the seed, two users'
     interviews differ by 30% and more in time and allocation, which buried
     every bound; so the complete interviews come from a fixed panel of
     users (as the paper evaluates on a fixed set of utility functions)
     and the seed draws the first-question users around them. *)
  let panel = Rng.create 2024 and rng = Rng.create seed in
  (* The warm-up user leaves after the first question for the same reason. *)
  let warm_failed = warm_up ctx ~eps (Rng.create (seed + 7919)) ~d ~full:false in
  let full = max 2 (seconds / 15) and first_only = max 10 (seconds * 5 / 3) in
  let run, layers =
    if not traced then begin
      let run = M.new_run () in
      measure ~between ctx ~eps run (plan ~complete:panel ~first:rng ~d ~full ~first_only);
      (run, [])
    end
    else begin
      let users =
        plan ~complete:panel ~first:rng ~d ~full:(full / 2) ~first_only:(first_only / 2)
      in
      let untraced, traced, l, overhead = traced_passes ~between ctx ~eps users in
      write_events l.events;
      ( merge_runs untraced traced,
        M.metric "dataset.generate_ms" "ms" (generate_ms (M.pacer ()))
        :: M.metric "trace.overhead_ms" "ms" overhead
        :: layer_metrics l )
    end
  in
  run.M.failed <- run.M.failed + warm_failed;
  M.diag "dataset.generate_ms" (generate_ms (M.pacer ())) "ms";
  { run; setup = !setup; layers }

let anti_store ~seed ~seconds ~traced ~work ~write_events =
  let n = 500_000 and d = 3 and eps = 0.05 in
  let c = 1. +. eps in
  let generated = ref [] and saved = ref [] and built = ref [] in
  let build_counters = ref [] in
  (* Set-up is the write path, repeated so its median is steady: generate,
     write the columnar store, reopen it by mmap, build the (1+eps)-skyline
     artifact into an empty cache. *)
  let set_up k =
    (* Each step is paced by a reading taken before it; the time of the
       whole set-up is the sum of its steps. *)
    let step name f =
      M.pace_probe ();
      timed_span name f
    in
    let raw, g =
      step "perfbench.generate" (fun () ->
          Generator.anti_correlated (Rng.create seed) ~n ~d)
    in
    let path = Filename.concat work (Printf.sprintf "anti-%d.store" k) in
    let (), s = step "perfbench.store_save" (fun () -> Dataset.save_store raw path) in
    let opened, o = step "perfbench.store_open" (fun () -> Dataset.load_store path) in
    let dir = Filename.concat work (Printf.sprintf "artifacts-%d" k) in
    let before = Counter.snapshot () in
    let sky, b =
      step "perfbench.artifact_build" (fun () ->
          Artifact.prune_eps_dominated_cached ~dir ~eps opened)
    in
    M.pace_probe ();
    build_counters := Counter.since before;
    generated := g :: !generated;
    saved := s :: !saved;
    built := b :: !built;
    (M.sample (g +. s +. o +. b), path, dir, opened, Dataset.size sky)
  in
  let repeats = List.init 3 set_up in
  let setup = List.map (fun (s, _, _, _, _) -> s) repeats in
  let _, path, dir, truth, sky_size = List.nth repeats 2 in
  let opens = ref [] and hits = ref [] in
  let prepare () =
    let data, o =
      timed_span "perfbench.store_open" (fun () -> Dataset.load_store path)
    in
    let sky, h =
      timed_span "perfbench.artifact_hit" (fun () -> Artifact.lookup ~dir ~c data)
    in
    opens := o :: !opens;
    hits := h :: !hits;
    match sky with
    | Some sky -> sky
    | None -> failwith "the skyline artifact written in set-up did not hit"
  in
  let config = { (Algo.default_config ~d) with Algo.s = 3; q = 9; eps } in
  let ctx = { algo = Algo.MinR; config; prepare; truth } in
  (* One MinR round here costs from ~5 ms to ~150 ms depending on the user,
     so the median round of 15 users drawn from the seed moved by 15-25%
     from seed to seed.  As on house-mind, the complete interviews come
     from a fixed panel of users; the seed draws the dataset and the
     first-question users between them. *)
  let panel = Rng.create 2024 and rng = Rng.create seed in
  let warm_failed = warm_up ctx ~eps (Rng.create (seed + 7919)) ~d ~full:true in
  let users = max 4 (seconds / 2) and first_only = max 4 (seconds / 3) in
  let run, layers =
    if not traced then begin
      let run = M.new_run () in
      measure ctx ~eps run (plan ~complete:panel ~first:rng ~d ~full:users ~first_only);
      (run, [])
    end
    else begin
      let untraced, traced, l, overhead =
        traced_passes ctx ~eps
          (plan ~complete:panel ~first:rng ~d ~full:(max 2 (users / 2))
             ~first_only:(max 2 (first_only / 2)))
      in
      write_events l.events;
      ( merge_runs untraced traced,
        M.metric "dataset.generate_ms" "ms" (M.ms (Option.get (M.median !generated)))
        :: M.metric "trace.overhead_ms" "ms" overhead
        :: layer_metrics l )
    end
  in
  run.M.failed <- run.M.failed + warm_failed;
  let med xs = M.ms (Option.value ~default:0. (M.median xs)) in
  M.diag "artifact.rows" (float_of_int sky_size) "count";
  M.diag "dataset.generate_ms" (med !generated) "ms";
  M.diag "store.save_ms" (med !saved) "ms";
  M.diag "store.open_ms" (med !opens) "ms";
  M.diag "artifact.build_ms" (med !built) "ms";
  M.diag "artifact.hit_ms" (med !hits) "ms";
  (* The artifact build's own skyline path, which the per-interview
     counters of the traced run do not see. *)
  List.iter
    (fun k -> M.diag ("setup." ^ k) (lookup !build_counters k) "count")
    [ "skyline.path_store"; "skyline.path_rtree"; "skyline.path_sfs";
      "rtree.nodes_visited" ];
  { run; setup; layers }
