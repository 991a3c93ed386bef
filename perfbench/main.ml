(* perfbench: one fixed protocol for the interview loop, end to end and
   layer by layer.

     main.exe --workload house-mind|anti-store|serve-mixed --seed N
              --seconds S --trace 0|1 [--indq PATH]

   Run from the root of the source tree (perfbench/run.py builds and runs
   it).  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Every metric is
   described in perfbench/CATALOG.md. *)

module M = Measure

let workloads = [ "house-mind"; "anti-store"; "serve-mixed" ]

(* The per-layer metrics every traced run reports, in catalog order.  A
   workload that never reaches a layer reports that layer's counts as 0. *)
let per_layer_names =
  [
    "dataset.generate_ms"; "trace.overhead_ms"; "skyline.path_store";
    "skyline.path_rtree"; "skyline.path_sfs"; "rtree.nodes_visited";
    "real_points.skyline.self_ms"; "real_points.pick_display.self_ms";
    "real_points.lemma2_prune.self_ms"; "prune.lp_calls"; "prune.witness_hits";
    "prune.store_hits"; "prune.scalar_hits"; "prune.hit_ratio";
    "poly.cache_hits"; "region.halfspaces"; "lp.dual_pivots"; "lp.dual_reopt";
    "lp.solves"; "lp.failures"; "gc.minor_mwords_per_round";
    "gc.major_collections_per_interview"; "serve.hydrations"; "serve.evictions";
    "serve.hydration_ratio"; "serve.journal_syncs"; "serve.sync_failures";
    "serve.requests"; "serve.wire_errors";
  ]

let unreached_unit = function
  | "serve.hydration_ratio" -> "ratio"
  | _ -> "count"

let per_layer metrics =
  List.map
    (fun name ->
      match List.find_opt (fun m -> m.M.name = name) metrics with
      | Some m -> m
      | None -> M.metric name (unreached_unit name) 0.)
    per_layer_names

exception Missing of string

let require name = function Some v -> v | None -> raise (Missing name)

(* Times are paced (see [Measure.pacer]). *)
let end_to_end ~pace run ~setup ~peak_rss =
  let p50 name samples scale =
    scale *. require name (M.typical (M.times pace samples))
  in
  let mean name xs = require name (M.mean xs) in
  [
    M.metric "setup_s" "s" (p50 "setup_s" (List.map (fun s -> (0, s)) setup) 1.);
    M.metric "first_question_ms.p50" "ms"
      (p50 "first_question_ms.p50" run.M.first_question 1000.);
    M.metric "round_ms.p50" "ms" (p50 "round_ms.p50" run.M.rounds 1000.);
    M.metric "questions.mean" "count" (mean "questions.mean" run.M.questions);
    M.metric "alloc_mwords_per_interview" "Mwords"
      (mean "alloc_mwords_per_interview" run.M.minor_words /. 1e6);
    M.metric "peak_rss_mb" "MB" peak_rss;
  ]

(* Tails, the whole-interview wait, the output size and the failure share
   are diagnostics: a tail is printed only when at least 10 samples lie
   beyond it; the interview wait on serve-mixed, a sum over one session's
   requests that takes in its hydration, spread 0.15 to 0.52 of its median
   over ten seeds as the host's CPU steal came and went; the output size is
   exact for a seed (the digest pins it) but varies more from seed to seed
   on anti-store than any bound allows; and a share that is 0 on a healthy
   build cannot carry a relative bound. *)
let run_diags ~pace workload run ~setup =
  let tail name p samples =
    Option.iter (fun v -> M.diag name (M.ms v) "ms") (M.tail p samples)
  in
  let first_question = M.times pace run.M.first_question
  and rounds = M.times pace run.M.rounds in
  Option.iter (fun v -> M.diag "interview_s.p50.wall" v "s") (M.typical run.M.interviews);
  Option.iter (fun v -> M.diag "setup_s.wall" v "s") (M.median (List.map M.wall setup));
  Option.iter
    (fun v -> M.diag "first_question_ms.p50.wall" (M.ms v) "ms")
    (M.typical (M.times M.wall run.M.first_question));
  Option.iter
    (fun v -> M.diag "round_ms.p50.wall" (M.ms v) "ms")
    (M.typical (M.times M.wall run.M.rounds));
  tail "first_question_ms.p90" 90. (M.values first_question);
  tail "round_ms.p90" 90. (M.values rounds);
  tail "round_ms.p99" 99. (M.values rounds);
  let classes = List.sort_uniq Int.compare (List.map fst run.M.rounds) in
  if List.length classes > 1 then
    List.iter
      (fun c ->
        let of_class xs = List.filter_map (fun (k, v) -> if k = c then Some v else None) xs in
        Option.iter
          (fun v -> M.diag (Printf.sprintf "round_ms.p50.class%d" c) (M.ms v) "ms")
          (M.median (of_class rounds));
        Option.iter
          (fun v -> M.diag (Printf.sprintf "interview_s.p50.class%d" c) v "s")
          (M.median (of_class run.M.interviews)))
      classes;
  M.diag "samples.first_question" (float_of_int (List.length run.M.first_question)) "count";
  M.diag "samples.round" (float_of_int (List.length run.M.rounds)) "count";
  M.diag "samples.interview" (float_of_int (List.length run.M.interviews)) "count";
  Option.iter (fun v -> M.diag "output.mean" v "count") (M.mean run.M.outputs);
  M.diag "failed.share"
    (float_of_int run.M.failed /. float_of_int (max 1 run.M.attempted))
    "ratio";
  Printf.printf "digest %s %s\n%!" workload (M.digest run)

let write_events ~workload ~seed events =
  let dir = ".perfbench-out" in
  M.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.jsonl" workload seed) in
  let oc = open_out path in
  List.iter
    (fun e ->
      output_string oc (Indq_obs.Trace.to_json e);
      output_char oc '\n')
    (List.rev events);
  close_out oc;
  Printf.printf "trace %s\n%!" path

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let indq = ref (Filename.concat "_build" (Filename.concat "default" "bin/indq.exe")) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  seed of every generated input");
      ("--seconds", Arg.Set_int seconds, "S  how long one run measures");
      ("--trace", Arg.Set_int trace, "0|1  1 prints the per-layer metrics");
      ("--indq", Arg.Set_string indq, "PATH  the indq binary serve-mixed spawns");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "perfbench: --workload must be one of %s\n" (String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 and seed = !seed and seconds = max 1 !seconds in
  let work = Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ())) in
  M.mkdir_p work;
  at_exit (fun () ->
      Served.kill_all ();
      M.remove_tree work;
      (try Unix.rmdir ".perfbench-work" with Unix.Unix_error _ -> ()));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  let write_events = write_events ~workload:!workload ~seed in
  let ticks_before = M.cpu_ticks () in
  let ref_before = M.host_probe () in
  let run, setup, peak_rss, layers =
    match !workload with
    | "house-mind" ->
      let r = Inproc.house_mind ~seed ~seconds ~traced ~write_events in
      (r.Inproc.run, r.Inproc.setup, M.peak_rss_mb None, r.Inproc.layers)
    | "anti-store" ->
      let r = Inproc.anti_store ~seed ~seconds ~traced ~work ~write_events in
      (r.Inproc.run, r.Inproc.setup, M.peak_rss_mb None, r.Inproc.layers)
    | _ ->
      if not (Sys.file_exists !indq) then begin
        Printf.eprintf "perfbench: no indq binary at %s\n" !indq;
        exit 2
      end;
      let r = Served.serve_mixed ~indq:!indq ~seed ~seconds ~traced ~work ~write_events in
      (r.Served.run, r.Served.setup, Some r.Served.peak_rss, r.Served.layers)
  in
  let ref_after = M.host_probe () in
  M.diag "host.ref_ms.before" ref_before "ms";
  M.diag "host.ref_ms.after" ref_after "ms";
  Option.iter (fun v -> M.diag "host.pace" v "ratio") (M.pace_median ());
  (match (ticks_before, M.cpu_ticks ()) with
  | Some (steal0, busy0), Some (steal1, busy1) when busy1 > busy0 ->
    M.diag "host.steal_share" ((steal1 -. steal0) /. (busy1 -. busy0)) "ratio"
  | _ -> ());
  let pace = M.pacer () in
  run_diags ~pace !workload run ~setup;
  let peak_rss = require "peak_rss_mb" peak_rss in
  let metrics =
    if traced then per_layer layers else end_to_end ~pace run ~setup ~peak_rss
  in
  if not traced then List.iter (fun m -> M.diag m.M.name m.M.value m.M.unit_) metrics;
  print_endline
    (M.result_line ~correct:(run.M.failed = 0) ~attempted:run.M.attempted
       ~failed:run.M.failed metrics)

let () =
  match main () with
  | () -> ()
  | exception Missing name ->
    Printf.eprintf "perfbench: no samples for %s; the run is invalid\n" name;
    exit 1
  | exception e ->
    Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
    exit 1
