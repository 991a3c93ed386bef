(* Equivalence of the incremental geometry engine against the cold path.

   The refactor's contract: warm-started LPs, cached-artifact revalidation
   and the cross-round prune store change only counters and wall time.
   These properties run the same interaction twice — incremental engine on
   and off — and demand identical outputs, question counts and regions
   across random datasets, configurations and display-pool sizes. *)

module Algo = Indq_core.Algo
module Real_points = Indq_core.Real_points
module Pruning = Indq_core.Pruning
module Region = Indq_core.Region
module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple
module Generator = Indq_dataset.Generator
module Polytope = Indq_geom.Polytope
module Halfspace = Indq_geom.Halfspace
module Utility = Indq_user.Utility
module Oracle = Indq_user.Oracle
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

(* Run [f] with the incremental engine forced to [enabled], restoring the
   ambient setting even on exceptions. *)
let with_incremental enabled f =
  let before = Polytope.incremental_enabled () in
  Polytope.set_incremental enabled;
  Fun.protect ~finally:(fun () -> Polytope.set_incremental before) f

let ids data =
  Dataset.tuples data |> Array.to_list
  |> List.map Tuple.id
  |> List.sort compare

let run_once ~seed ~n ~d ~s ~q ~eps ~trials strategy =
  let rng = Rng.create seed in
  let data = Generator.independent rng ~n ~d in
  let u = Utility.random rng ~d in
  let oracle = Oracle.exact u in
  let result =
    Real_points.run ~trials strategy ~data ~s ~q ~eps ~oracle
      ~rng:(Rng.split rng)
  in
  ( ids result.Real_points.output,
    result.Real_points.questions_used,
    List.length
      (Polytope.halfspaces (Region.polytope result.Real_points.region)) )

let prop_incremental_matches_cold =
  QCheck2.Test.make ~count:20
    ~name:"incremental engine: identical runs with caching on and off"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 2 in
      let n = 25 + Rng.int rng 40 in
      let s = 2 + Rng.int rng (d - 1) in
      let q = d + Rng.int rng (2 * d) in
      let eps = 0.02 +. Rng.float rng 0.15 in
      let trials = 1 + Rng.int rng 4 in
      List.for_all
        (fun strategy ->
          let go enabled =
            with_incremental enabled (fun () ->
                run_once ~seed ~n ~d ~s ~q ~eps ~trials strategy)
          in
          go true = go false)
        Real_points.[ Random; MinR; MinD ])

(* The same check through the full dispatcher, exercising Squeeze-u's
   box pruning next to the region-based algorithms. *)
let prop_algo_matches_cold =
  QCheck2.Test.make ~count:10
    ~name:"incremental engine: Algo.run outputs unchanged"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 2 in
      let data = Generator.independent rng ~n:(30 + Rng.int rng 30) ~d in
      let u = Utility.random rng ~d in
      let config = { (Algo.default_config ~d) with Algo.trials = 2 } in
      List.for_all
        (fun name ->
          let go enabled =
            with_incremental enabled (fun () ->
                let oracle = Oracle.exact u in
                let result =
                  Algo.run name config ~data ~oracle ~rng:(Rng.create (seed + 1))
                in
                (ids result.Algo.output, result.Algo.questions_used))
          in
          go true = go false)
        Algo.all)

(* Geometry-level equivalence: verdicts and canonical artifacts match
   exactly; value-grade metrics match to round-off. *)
let prop_polytope_matches_cold =
  QCheck2.Test.make ~count:50
    ~name:"polytope queries: cached vs cold"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 3 in
      let cuts =
        List.init
          (1 + Rng.int rng 4)
          (fun _ ->
            let normal =
              Vec.init d (fun _ -> Rng.float rng 2. -. 1.)
            in
            Halfspace.ge normal (Rng.float rng 0.4 -. 0.2))
      in
      let query enabled =
        with_incremental enabled (fun () ->
            let r = Polytope.cut_many (Polytope.simplex d) cuts in
            (* Query twice so the second round hits the caches. *)
            let probe () =
              if Polytope.is_empty r then None
              else
                Some
                  ( Polytope.coordinate_bounds r,
                    Polytope.center_estimate r,
                    Polytope.width r,
                    Polytope.diameter r )
            in
            let first = probe () in
            let second = probe () in
            (first, second))
      in
      let approx (b1, c1, w1, d1) (b2, c2, w2, d2) =
        let close x y = Float.abs (x -. y) <= 1e-7 in
        Array.for_all2 (fun (l1, h1) (l2, h2) -> close l1 l2 && close h1 h2) b1 b2
        && Vec.approx_equal ~tol:1e-7 c1 c2
        && close w1 w2 && close d1 d2
      in
      let pair_ok a b =
        match (a, b) with
        | None, None -> true
        | Some x, Some y -> approx x y
        | _ -> false
      in
      let warm1, warm2 = query true in
      let cold1, cold2 = query false in
      pair_ok warm1 cold1 && pair_ok warm2 cold2 && pair_ok warm1 warm2)

(* The prune store must never change which candidates survive a round
   sequence — only how many LPs are issued. *)
let prop_store_preserves_prune_decisions =
  QCheck2.Test.make ~count:30
    ~name:"prune store: same survivors with and without"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 2 in
      let data = Generator.independent rng ~n:(20 + Rng.int rng 30) ~d in
      let eps = 0.02 +. Rng.float rng 0.2 in
      let u = Utility.random rng ~d in
      (* A shrinking region chain from synthetic preference answers. *)
      let answers =
        List.init (2 + Rng.int rng 3) (fun _ ->
            let a = Vec.init d (fun _ -> Rng.float rng 1.) in
            let b = Vec.init d (fun _ -> Rng.float rng 1.) in
            if Utility.value u a >= Utility.value u b then (a, [ b ])
            else (b, [ a ]))
      in
      let prune_chain store =
        let region = ref (Region.initial ~d) in
        let survivors = ref data in
        List.iter
          (fun (winner, losers) ->
            let updated = Region.observe !region ~winner ~losers in
            if not (Region.is_empty updated) then begin
              region := updated;
              survivors := Pruning.region_prune ?store ~eps !region !survivors
            end)
          answers;
        ids !survivors
      in
      prune_chain (Some (Pruning.Store.create ())) = prune_chain None)

(* Stamped witness revalidation against the full re-check.  A chain of
   rounds with erring answers — some rounds collapse to an empty region
   and keep the previous one — and speculative side branches (a sibling
   region pruned with the same store and then abandoned, so the next
   round's cut list does not extend the stamps it left).  Every round must
   keep the same survivors and bump every prune counter by the same
   amount as a store that ignores its stamps. *)
let prune_counters =
  [ "prune.store_hits"; "prune.lp_calls"; "prune.witness_hits";
    "prune.scalar_hits" ]

let prop_stamped_store_matches_full_recheck =
  QCheck2.Test.make ~count:25
    ~name:"prune store: stamped revalidation matches the full re-check"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 4 in
      let data = Generator.anti_correlated rng ~n:(100 + Rng.int rng 200) ~d in
      let eps = 0.02 +. Rng.float rng 0.2 in
      let u = Utility.random rng ~d in
      let rounds =
        List.init (5 + Rng.int rng 8) (fun _ ->
            (* One to three losers: a round adds up to three cuts. *)
            let shown =
              List.init (2 + Rng.int rng 3) (fun _ ->
                  Vec.init d (fun _ -> Rng.float rng 1.))
            in
            let best =
              List.fold_left
                (fun acc p ->
                  if Utility.value u p > Utility.value u acc then p else acc)
                (List.hd shown) shown
            in
            (* One answer in four errs, so regions can collapse. *)
            let winner =
              if Rng.float rng 1. < 0.25 then
                List.nth shown (Rng.int rng (List.length shown))
              else best
            in
            let branch = Rng.float rng 1. < 0.3 in
            (shown, winner, branch))
      in
      let others shown w = List.filter (fun p -> p != w) shown in
      let prune_chain store =
        let region = ref (Region.initial ~d) in
        let survivors = ref data in
        List.map
          (fun (shown, winner, branch) ->
            if branch then begin
              (* An answer the user did not give, with as many cuts as the
                 real one: prune its region with the shared store, then
                 drop it. *)
              let alt = List.find (fun p -> p != winner) shown in
              let side =
                Region.observe !region ~winner:alt ~losers:(others shown alt)
              in
              if not (Region.is_empty side) then
                ignore (Pruning.region_prune ~store ~eps side !survivors)
            end;
            let updated =
              Region.observe !region ~winner ~losers:(others shown winner)
            in
            if not (Region.is_empty updated) then region := updated;
            let before = List.map Indq_obs.Counter.get prune_counters in
            survivors := Pruning.region_prune ~store ~eps !region !survivors;
            let after = List.map Indq_obs.Counter.get prune_counters in
            (ids !survivors, List.map2 ( -. ) after before))
          rounds
      in
      let full = prune_chain (Pruning.Store.create ~full_recheck:true ()) in
      let stamped = prune_chain (Pruning.Store.create ()) in
      full = stamped)

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_incremental_matches_cold;
          QCheck_alcotest.to_alcotest prop_algo_matches_cold;
          QCheck_alcotest.to_alcotest prop_polytope_matches_cold;
          QCheck_alcotest.to_alcotest prop_store_preserves_prune_decisions;
          QCheck_alcotest.to_alcotest prop_stamped_store_matches_full_recheck;
        ] );
    ]
