(* The benchmark's own checks: raw-sample percentiles respect the tail rule,
   and a corrupted output is counted as a failed interview, in process and
   through the served-result audit. *)

module Dataset = Indq_dataset.Dataset
module Generator = Indq_dataset.Generator
module Tuple = Indq_dataset.Tuple
module Algo = Indq_core.Algo
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

let check name ok =
  if not ok then begin
    Printf.eprintf "FAIL %s\n" name;
    exit 1
  end
  else Printf.printf "ok   %s\n" name

let upto n = List.init n float_of_int

let test_percentiles () =
  check "median of an even sample averages the middle pair"
    (Measure.median [ 4.; 1.; 3.; 2. ] = Some 2.5);
  check "median of an odd sample" (Measure.median [ 5.; 1.; 3. ] = Some 3.);
  check "no median of nothing" (Measure.median [] = None);
  check "p90 needs 100 samples" (Measure.tail 90. (upto 99) = None);
  check "p90 is nearest-rank" (Measure.tail 90. (upto 100) = Some 89.);
  check "p99 needs 1000 samples" (Measure.tail 99. (upto 999) = None);
  check "p99 is nearest-rank" (Measure.tail 99. (upto 1000) = Some 989.)

(* Pacing scales a sample by the nominal kernel time over the median of
   the readings around it. *)
let test_pacing () =
  for _ = 1 to 20 do
    Measure.pace_probe ()
  done;
  let s = Measure.sample 0.1 in
  for _ = 1 to 20 do
    Measure.pace_probe ()
  done;
  let pace = Measure.pacer () in
  let readings = List.filteri (fun i _ -> i >= 12 && i < 27) (List.rev !Measure.pace_readings) in
  let expected = 0.1 *. Measure.pace_nominal /. Option.get (Measure.median readings) in
  check "a paced sample scales by nominal over the readings around it"
    (Float.abs (pace s -. expected) < 1e-12)

let eps = 0.05
let data = Generator.anti_correlated (Rng.create 3) ~n:400 ~d:3
let config = { (Algo.default_config ~d:3) with Algo.s = 3; q = 9; eps }

let without_best utility =
  let best, _ = Dataset.max_utility data utility in
  Dataset.filter data (fun t -> Tuple.id t <> Tuple.id best)

let test_in_process () =
  let rng = Rng.create 5 in
  let users = Inproc.plan ~complete:rng ~first:rng ~d:3 ~full:2 ~first_only:1 in
  check "the plan spreads first-question users between complete ones"
    (List.map (fun (u : Inproc.user) -> u.Inproc.full)
       (Inproc.plan ~complete:rng ~first:rng ~d:3 ~full:3 ~first_only:2)
    = [ true; true; false; true; false ]);
  let honest = Measure.new_run () in
  let ctx = { Inproc.algo = Algo.MinR; config; prepare = (fun () -> data); truth = data } in
  Inproc.measure ctx ~eps honest users;
  check "honest interviews pass the audit"
    (honest.Measure.attempted = 3 && honest.Measure.failed = 0);
  (* Each session runs on the data minus its user's best tuple, so its
     output cannot contain I(f, eps) of the full dataset. *)
  let corrupted = Measure.new_run () in
  List.iter
    (fun (user : Inproc.user) ->
      let ctx =
        { ctx with Inproc.prepare = (fun () -> without_best user.Inproc.utility) }
      in
      Inproc.measure ctx ~eps corrupted [ user ])
    users;
  check "each corrupted complete interview is one failure"
    (corrupted.Measure.attempted = 3 && corrupted.Measure.failed = 2);
  check "the digest tells the two transcripts apart"
    (Measure.digest honest <> Measure.digest corrupted);
  (* An exception before the session starts fails that interview, and the
     run goes on to the next user. *)
  let raising = Measure.new_run () in
  let broken = { ctx with Inproc.prepare = (fun () -> failwith "no data") } in
  Inproc.measure broken ~eps raising [ List.hd users ];
  Inproc.measure ctx ~eps raising [ List.nth users 1 ];
  check "an interview that raises is one failure and the run goes on"
    (raising.Measure.attempted = 2 && raising.Measure.failed = 1
    && List.length raising.Measure.first_question = 1)

(* A served result is audited against the dataset rebuilt from its hello
   and replayed in process; drop one tuple of I(f, eps) from an otherwise
   genuine reply and the session counts as failed, once. *)
let test_served () =
  let sess = List.hd (Served.plan ~seed:11 ~count:4 |> List.rev) in
  let sdata =
    Generator.by_name Served.data_name (Rng.create sess.Served.data_seed)
      ~n:Served.n ~d:Served.d
  in
  let user =
    { Inproc.index = 0; utility = sess.Served.utility;
      session_seed = sess.Served.data_seed + 1; full = true }
  in
  let ctx =
    { Inproc.algo = sess.Served.algo; config = Served.config sess;
      prepare = (fun () -> sdata); truth = sdata }
  in
  let o = Inproc.interview ctx user in
  let output = Option.get o.Inproc.output in
  let pairs =
    List.map
      (fun t -> (Tuple.id t, Vec.to_array (Tuple.values t)))
      (Dataset.to_list output)
  in
  sess.Served.questions <- o.Inproc.questions;
  sess.Served.output <- Some pairs;
  let honest = Measure.new_run () in
  Served.check honest [ sess ] (ref []);
  check "a genuine served result passes" (honest.Measure.failed = 0);
  let best, _ = Dataset.max_utility sdata sess.Served.utility in
  sess.Served.output <- Some (List.filter (fun (id, _) -> id <> Tuple.id best) pairs);
  let corrupted = Measure.new_run () in
  Served.check corrupted [ sess ] (ref []);
  check "a served result missing a tuple of I is one failure"
    (corrupted.Measure.attempted = 1 && corrupted.Measure.failed = 1)

let () =
  test_percentiles ();
  test_pacing ();
  test_in_process ();
  test_served ()
