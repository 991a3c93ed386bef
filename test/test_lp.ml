(* Unit and property tests for the two-phase simplex LP solver. *)

module Lp = Indq_lp.Lp
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

let vec = Vec.of_array

let check_float = Alcotest.(check (float 1e-6))

let solve_max ~n ~objective cs =
  match Lp.maximize ~n ~objective cs with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Lp.Failed e -> Alcotest.fail ("unexpected failure: " ^ Lp.error_message e)

let solve_min ~n ~objective cs =
  match Lp.minimize ~n ~objective cs with
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Lp.Failed e -> Alcotest.fail ("unexpected failure: " ^ Lp.error_message e)

(* max x + y st x + 2y <= 4, 3x + y <= 6 -> optimum at (1.6, 1.2), value 2.8 *)
let test_textbook_max () =
  let cs =
    [ Lp.constr (vec [| 1.; 2. |]) Lp.Le 4.; Lp.constr (vec [| 3.; 1. |]) Lp.Le 6. ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 1. |]) cs in
  check_float "value" 2.8 s.objective;
  check_float "x" 1.6 (Vec.get s.point 0);
  check_float "y" 1.2 (Vec.get s.point 1)

(* min 2x + 3y st x + y >= 4, x >= 1 -> optimum at (4, 0), value 8 *)
let test_textbook_min () =
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Ge 4.; Lp.constr (vec [| 1.; 0. |]) Lp.Ge 1. ]
  in
  let s = solve_min ~n:2 ~objective:(vec [| 2.; 3. |]) cs in
  check_float "value" 8. s.objective;
  check_float "x" 4. (Vec.get s.point 0);
  check_float "y" 0. (Vec.get s.point 1)

let test_equality_constraint () =
  (* max x st x + y = 1 -> x = 1 *)
  let cs = [ Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1. ] in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 0. |]) cs in
  check_float "value" 1. s.objective;
  check_float "y" 0. (Vec.get s.point 1)

let test_infeasible () =
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Le 1.; Lp.constr (vec [| 1.; 1. |]) Lp.Ge 2. ]
  in
  match Lp.maximize ~n:2 ~objective:(vec [| 1.; 0. |]) cs with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let cs = [ Lp.constr (vec [| 1.; -1. |]) Lp.Le 1. ] in
  match Lp.maximize ~n:2 ~objective:(vec [| 1.; 1. |]) cs with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_no_constraints_min () =
  match Lp.minimize ~n:3 ~objective:(vec [| 1.; 2.; 3. |]) [] with
  | Lp.Optimal s -> check_float "value" 0. s.objective
  | _ -> Alcotest.fail "expected optimal at origin"

let test_no_constraints_unbounded () =
  match Lp.maximize ~n:2 ~objective:(vec [| 1.; 0. |]) [] with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs_normalization () =
  (* x - y <= -1 means y >= x + 1; max x st also y <= 2 -> x = 1. *)
  let cs =
    [ Lp.constr (vec [| 1.; -1. |]) Lp.Le (-1.); Lp.constr (vec [| 0.; 1. |]) Lp.Le 2. ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 0. |]) cs in
  check_float "value" 1. s.objective

let test_degenerate_vertex () =
  (* Three constraints meeting at one vertex; Bland's rule must not cycle. *)
  let cs =
    [
      Lp.constr (vec [| 1.; 1. |]) Lp.Le 2.;
      Lp.constr (vec [| 1.; 0. |]) Lp.Le 1.;
      Lp.constr (vec [| 0.; 1. |]) Lp.Le 1.;
    ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 1. |]) cs in
  check_float "value" 2. s.objective

let test_simplex_vertex_objective () =
  (* Over the probability simplex, max c.x is max_i c_i. *)
  let cs = [ Lp.constr (vec [| 1.; 1.; 1. |]) Lp.Eq 1. ] in
  let s = solve_max ~n:3 ~objective:(vec [| 0.3; 0.9; 0.5 |]) cs in
  check_float "value" 0.9 s.objective;
  check_float "x1" 1. (Vec.get s.point 1)

let test_redundant_equalities () =
  (* Duplicate equality rows leave a basic artificial on a zero row; the
     solver must still answer. *)
  let cs =
    [
      Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.;
      Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.;
      Lp.constr (vec [| 2.; 2. |]) Lp.Eq 2.;
    ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 2. |]) cs in
  check_float "value" 2. s.objective

let test_feasible_point () =
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.; Lp.constr (vec [| 1.; -1. |]) Lp.Ge 0. ]
  in
  match Lp.feasible_point ~n:2 cs with
  | Some p ->
    check_float "sum" 1. (Vec.get p 0 +. Vec.get p 1);
    Alcotest.(check bool) "x >= y" true (Vec.get p 0 >= Vec.get p 1 -. 1e-9)
  | None -> Alcotest.fail "should be feasible"

let test_ge_with_positive_rhs () =
  (* Exercises the artificial-variable path (Ge rows with rhs > 0 cannot be
     rewritten as Le rows). *)
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Ge 2.; Lp.constr (vec [| 1.; 0. |]) Lp.Le 1.5 ]
  in
  let s = solve_min ~n:2 ~objective:(vec [| 3.; 1. |]) cs in
  (* min 3x + y st x + y >= 2, x <= 1.5 -> all weight on y: (0, 2). *)
  check_float "value" 2. s.objective;
  check_float "y" 2. (Vec.get s.point 1)

let test_mixed_equalities_phase1 () =
  (* x + y = 1 and x - y = 0.5 pin (0.75, 0.25); objective irrelevant. *)
  let cs =
    [ Lp.constr (vec [| 1.; 1. |]) Lp.Eq 1.; Lp.constr (vec [| 1.; -1. |]) Lp.Eq 0.5 ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 1.; 7. |]) cs in
  check_float "x" 0.75 (Vec.get s.point 0);
  check_float "y" 0.25 (Vec.get s.point 1)

let test_zero_rhs_ge_rewrite () =
  (* w . x >= 0 cuts are the hot path; check they behave like constraints,
     not like no-ops: max y st y - x <= 0 (i.e. x - y >= 0), x <= 1. *)
  let cs =
    [ Lp.constr (vec [| 1.; -1. |]) Lp.Ge 0.; Lp.constr (vec [| 1.; 0. |]) Lp.Le 1. ]
  in
  let s = solve_max ~n:2 ~objective:(vec [| 0.; 1. |]) cs in
  check_float "y bounded by x" 1. s.objective

let test_invalid_inputs () =
  Alcotest.check_raises "bad objective length" (Invalid_argument "Lp: objective length <> n")
    (fun () -> ignore (Lp.maximize ~n:2 ~objective:(vec [| 1. |]) []));
  Alcotest.check_raises "bad constraint length"
    (Invalid_argument "Lp: constraint coefficient length <> n") (fun () ->
      ignore (Lp.maximize ~n:2 ~objective:(vec [| 1.; 1. |]) [ Lp.constr (vec [| 1. |]) Lp.Le 1. ]))

(* Property: on random bounded problems, the reported optimum is feasible and
   no random feasible point beats it. *)
let random_bounded_problem rng =
  let n = 2 + Rng.int rng 3 in
  let m = 1 + Rng.int rng 5 in
  (* Box plus random <= cuts keeps the problem bounded and feasible at 0. *)
  let box =
    List.init n (fun i ->
        let coeffs = Vec.init n (fun j -> if i = j then 1. else 0.) in
        Lp.constr coeffs Lp.Le (0.5 +. Rng.uniform rng))
  in
  let cuts =
    List.init m (fun _ ->
        let coeffs = Vec.init n (fun _ -> Rng.uniform rng) in
        Lp.constr coeffs Lp.Le (0.1 +. Rng.uniform rng))
  in
  let objective = Vec.init n (fun _ -> Rng.in_range rng (-1.) 1.) in
  (n, objective, box @ cuts)

let prop_optimal_dominates_samples =
  QCheck2.Test.make ~count:100 ~name:"lp optimum beats random feasible points"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      match Lp.maximize ~n ~objective cs with
      | Lp.Unbounded -> false (* impossible: box-bounded *)
      | Lp.Infeasible -> false (* impossible: origin feasible *)
      | Lp.Failed _ -> false (* impossible: tiny well-posed problem *)
      | Lp.Optimal { objective = best; point } ->
        let feasible p =
          List.for_all
            (fun (c : Lp.constr) ->
              match c.relation with
              | Lp.Le -> Vec.dot c.coeffs p <= c.rhs +. 1e-6
              | Lp.Ge -> Vec.dot c.coeffs p >= c.rhs -. 1e-6
              | Lp.Eq -> Float.abs (Vec.dot c.coeffs p -. c.rhs) <= 1e-6)
            cs
          && Vec.for_all (fun x -> x >= -1e-9) p
        in
        if not (feasible point) then false
        else begin
          (* Random feasible candidates obtained by scaling random rays until
             feasible; none may exceed the optimum. *)
          let ok = ref true in
          for _ = 1 to 30 do
            let p = Vec.init n (fun _ -> Rng.uniform rng *. 0.2) in
            if feasible p && Vec.dot objective p > best +. 1e-6 then
              ok := false
          done;
          !ok
        end)

(* The live dual-simplex path must change cost, never answers: optimizing
   any bounded problem through a Live handle returns the same verdict and
   an equal optimum as the cold two-phase solve, both before and after
   adding one halfspace the dual-simplex way. *)
let random_extra_cut rng n =
  let coeffs = Vec.init n (fun _ -> Rng.in_range rng (-0.5) 1.) in
  Lp.constr coeffs Lp.Le (Rng.in_range rng (-0.05) 0.4)

let prop_live_matches_cold =
  QCheck2.Test.make ~count:80 ~name:"live optimize: same verdict and optimum"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      match Lp.Live.create ~n cs with
      | `Infeasible | `Failed _ -> false (* impossible: origin feasible *)
      | `Feasible h -> (
        match (Lp.Live.optimize h ~objective `Maximize, Lp.maximize ~n ~objective cs) with
        | Lp.Optimal live, Lp.Optimal cold ->
          Float.abs (live.objective -. cold.objective) < 1e-6
        | _ -> false))

let prop_add_cut_matches_cold =
  QCheck2.Test.make ~count:80
    ~name:"live add_cut: dual verdict and optimum match the cold solve"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      let cut = random_extra_cut rng n in
      let cs' = cs @ [ cut ] in
      match Lp.Live.create ~n cs with
      | `Infeasible | `Failed _ -> false
      | `Feasible h -> (
        match Lp.Live.optimize h ~objective `Maximize with
        | Lp.Optimal _ -> (
          match (Lp.Live.add_cut h cut, Lp.maximize ~n ~objective cs') with
          | (`Sat | `Reopt _), Lp.Optimal cold -> (
            match Lp.Live.optimize h ~objective `Maximize with
            | Lp.Optimal live ->
              Float.abs (live.objective -. cold.objective) < 1e-6
            | _ -> false)
          | `Infeasible, Lp.Infeasible -> true
          | _ -> false)
        | _ -> false))

(* Replay determinism: the dual path is a pure function of its inputs, so
   re-running the identical create / optimize / add_cut / optimize sequence
   must reproduce the optimum bit-for-bit. *)
let prop_live_replay_bit_equal =
  QCheck2.Test.make ~count:60 ~name:"live replay is bit-identical"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let run () =
        let rng = Rng.create seed in
        let n, objective, cs = random_bounded_problem rng in
        let cut = random_extra_cut rng n in
        match Lp.Live.create ~n cs with
        | `Infeasible | `Failed _ -> None
        | `Feasible h -> (
          match Lp.Live.add_cut h cut with
          | `Infeasible | `Failed _ -> Some nan
          | `Sat | `Reopt _ -> (
            match Lp.Live.optimize h ~objective `Maximize with
            | Lp.Optimal s -> Some s.objective
            | _ -> None))
      in
      match (run (), run ()) with
      | Some a, Some b ->
        (Float.is_nan a && Float.is_nan b)
        || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      | None, None -> true
      | _ -> false)

(* Forking: a copy refines independently and the parent's standing basis
   (hence its answers) is untouched by cuts added to the fork. *)
let test_live_copy_isolation () =
  let cs =
    [ Lp.constr (vec [| 1.; 2. |]) Lp.Le 4.; Lp.constr (vec [| 3.; 1. |]) Lp.Le 6. ]
  in
  match Lp.Live.create ~n:2 cs with
  | `Infeasible | `Failed _ -> Alcotest.fail "textbook problem is feasible"
  | `Feasible parent -> (
    let fork = Lp.Live.copy parent in
    (match Lp.Live.add_cut fork (Lp.constr (vec [| 1.; 0. |]) Lp.Le 0.5) with
    | `Sat | `Reopt _ -> ()
    | `Infeasible | `Failed _ -> Alcotest.fail "fork cut is satisfiable");
    match
      ( Lp.Live.optimize parent ~objective:(vec [| 1.; 1. |]) `Maximize,
        Lp.Live.optimize fork ~objective:(vec [| 1.; 1. |]) `Maximize )
    with
    | Lp.Optimal p, Lp.Optimal f ->
      check_float "parent unchanged" 2.8 p.objective;
      Alcotest.(check bool) "fork tighter" true (f.objective < 2.8 -. 1e-9)
    | _ -> Alcotest.fail "both solves are bounded and feasible")

(* --- Fork onto a reused target ------------------------------------------ *)

(* A region the way the polytope engine builds one: the simplex equality,
   then random [>=] cuts absorbed one at a time (each keeps a random
   simplex point inside, so every prefix is feasible). *)
let random_chain rng ~n ~cuts =
  let inside = Vec.init n (fun _ -> 0.1 +. Rng.uniform rng) in
  let total = Vec.sum inside in
  let inside = Vec.map (fun x -> x /. total) inside in
  let root = [ Lp.constr (Vec.make n 1.) Lp.Eq 1. ] in
  match Lp.Live.create ~n root with
  | `Infeasible | `Failed _ -> Alcotest.fail "the simplex is feasible"
  | `Feasible h ->
    let chain = ref [ h ] in
    for _ = 1 to cuts do
      let coeffs = Vec.init n (fun _ -> Rng.in_range rng (-1.) 1.) in
      let offset = Vec.dot coeffs inside -. Rng.in_range rng 0. 0.2 in
      let next = Lp.Live.copy (List.hd !chain) in
      (match Lp.Live.add_cut next (Lp.constr coeffs Lp.Ge offset) with
      | `Sat | `Reopt _ -> ()
      | `Infeasible | `Failed _ -> Alcotest.fail "the cut keeps a point");
      chain := next :: !chain
    done;
    Array.of_list (List.rev !chain)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let vec_bits_equal a b =
  Vec.dim a = Vec.dim b
  && List.for_all2 bits_equal (Vec.to_list a) (Vec.to_list b)

(* Everything observable about a handle after one more query and one more
   cut: both optima, both points and the standing vertex, bit for bit. *)
let observe rng n h =
  let optimum objective =
    match Lp.Live.optimize h ~objective `Maximize with
    | Lp.Optimal s -> Some (s.objective, s.point)
    | _ -> None
  in
  let o1 = Vec.init n (fun _ -> Rng.in_range rng (-1.) 1.) in
  let first = optimum o1 in
  let cut =
    Lp.constr (Vec.init n (fun _ -> Rng.in_range rng (-1.) 1.)) Lp.Ge
      (Rng.in_range rng (-0.3) 0.)
  in
  let verdict =
    match Lp.Live.add_cut h cut with
    | `Sat -> "sat"
    | `Reopt k -> "reopt " ^ string_of_int k
    | `Infeasible -> "infeasible"
    | `Failed _ -> "failed"
  in
  let second =
    if Lp.Live.usable h then optimum (Vec.init n (fun _ -> Rng.uniform rng))
    else None
  in
  let point = if Lp.Live.usable h then Some (Lp.Live.point h) else None in
  (first, verdict, second, point)

let observations_equal (f1, v1, s1, p1) (f2, v2, s2, p2) =
  let opt a b =
    match (a, b) with
    | Some (x, p), Some (y, q) -> bits_equal x y && vec_bits_equal p q
    | None, None -> true
    | _ -> false
  in
  opt f1 f2 && String.equal v1 v2 && opt s1 s2
  && match (p1, p2) with
     | Some p, Some q -> vec_bits_equal p q
     | None, None -> true
     | _ -> false

(* [fork ~into] must be indistinguishable from [copy]: forks of parents at
   interleaved depths (so the reused target's shape keeps changing as the
   capacity grid doubles), each fork then pivoting, growing past its own
   capacity and answering, bit for bit like a fresh copy of the same
   parent — and the parent is never disturbed. *)
let prop_fork_matches_copy =
  QCheck2.Test.make ~count:40 ~name:"live fork is bit-identical to copy"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 4 in
      let chain = random_chain rng ~n ~cuts:(10 + Rng.int rng 30) in
      let scratch = ref None in
      let ok = ref true in
      for _ = 1 to 12 do
        let parent = chain.(Rng.int rng (Array.length chain)) in
        let before = Lp.Live.point parent in
        let copied = Lp.Live.copy parent in
        let forked = Lp.Live.fork ?into:!scratch parent in
        let extra_cuts = Rng.int rng 12 in
        let query_seed = Rng.int rng 1_000_000 in
        let run h =
          let r = Rng.create query_seed in
          let obs = observe r n h in
          for _ = 1 to extra_cuts do
            if Lp.Live.usable h then
              ignore
                (Lp.Live.add_cut h
                   (Lp.constr
                      (Vec.init n (fun _ -> Rng.in_range r (-1.) 1.))
                      Lp.Ge (Rng.in_range r (-0.5) (-0.1))))
          done;
          (obs, observe r n h)
        in
        let (a1, a2) = run copied and (b1, b2) = run forked in
        if
          not
            (observations_equal a1 b1 && observations_equal a2 b2
            && vec_bits_equal before (Lp.Live.point parent))
        then ok := false;
        scratch := Some forked
      done;
      !ok)

(* --- Allocation probes -------------------------------------------------- *)

(* Minor words one call allocates, measured after an identical warm-up
   call (the pivot histogram creates a bucket the first time it sees a
   pivot count). *)
let words_of f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

(* Re-optimizing a ~40-cut region allocates its result (the point, the
   solution record, the outcome) and a constant handful of words per call
   — nothing per tableau row and nothing per pivot: the row sweeps, ratio
   tests and the objective install run in place over the flat buffers.
   A fork onto a same-shape target allocates nothing at all. *)
let test_optimize_allocation () =
  let rng = Rng.create 42 in
  let n = 6 in
  let small = random_chain rng ~n ~cuts:10 in
  let large = random_chain rng ~n ~cuts:40 in
  let objective = Vec.init n (fun i -> float_of_int (i + 1)) in
  let words chain =
    let parent = chain.(Array.length chain - 1) in
    (* Built once: [~into:scratch] at the call would allocate the option. *)
    let into = Some (Lp.Live.copy parent) in
    let fork_words = words_of (fun () -> Lp.Live.fork ?into parent) in
    let optimize_words =
      words_of (fun () ->
          let h = Lp.Live.fork ?into parent in
          match Lp.Live.optimize h ~objective `Maximize with
          | Lp.Optimal _ -> ()
          | _ -> Alcotest.fail "the region is bounded and feasible")
    in
    (fork_words, optimize_words)
  in
  let small_fork, small_opt = words small and large_fork, large_opt = words large in
  Alcotest.(check (float 0.)) "fork onto a same-shape target" 0. small_fork;
  Alcotest.(check (float 0.)) "fork onto a same-shape target (40 cuts)" 0.
    large_fork;
  Alcotest.(check bool)
    (Printf.sprintf "optimize allocates a small constant (%g words)" large_opt)
    true (large_opt <= 100.);
  Alcotest.(check (float 0.)) "independent of rows and pivots" small_opt
    large_opt

let prop_minimize_is_negated_maximize =
  QCheck2.Test.make ~count:60 ~name:"min f = -max(-f)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n, objective, cs = random_bounded_problem rng in
      let neg = Vec.neg objective in
      match (Lp.minimize ~n ~objective cs, Lp.maximize ~n ~objective:neg cs) with
      | Lp.Optimal a, Lp.Optimal b -> Float.abs (a.objective +. b.objective) < 1e-6
      | Lp.Infeasible, Lp.Infeasible -> true
      | Lp.Unbounded, Lp.Unbounded -> true
      | _ -> false)

let () =
  Alcotest.run "lp"
    [
      ( "simplex-solver",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "textbook min" `Quick test_textbook_min;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "no constraints min" `Quick test_no_constraints_min;
          Alcotest.test_case "no constraints unbounded" `Quick
            test_no_constraints_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalization;
          Alcotest.test_case "degenerate vertex" `Quick test_degenerate_vertex;
          Alcotest.test_case "simplex vertex" `Quick test_simplex_vertex_objective;
          Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
          Alcotest.test_case "feasible point" `Quick test_feasible_point;
          Alcotest.test_case "ge with positive rhs" `Quick test_ge_with_positive_rhs;
          Alcotest.test_case "mixed equalities" `Quick test_mixed_equalities_phase1;
          Alcotest.test_case "zero-rhs ge rewrite" `Quick test_zero_rhs_ge_rewrite;
          Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
          Alcotest.test_case "live copy isolation" `Quick test_live_copy_isolation;
          Alcotest.test_case "optimize allocation" `Quick test_optimize_allocation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_optimal_dominates_samples;
          QCheck_alcotest.to_alcotest prop_minimize_is_negated_maximize;
          QCheck_alcotest.to_alcotest prop_live_matches_cold;
          QCheck_alcotest.to_alcotest prop_add_cut_matches_cold;
          QCheck_alcotest.to_alcotest prop_live_replay_bit_equal;
          QCheck_alcotest.to_alcotest prop_fork_matches_copy;
        ] );
    ]
