(* Tests for halfspaces and the simplex-region polytope. *)

module Halfspace = Indq_geom.Halfspace
module Polytope = Indq_geom.Polytope
module Rng = Indq_util.Rng
module Vec = Indq_linalg.Vec

let vec = Vec.of_array

let test_halfspace_membership () =
  let h = Halfspace.ge (vec [| 1.; -1. |]) 0. in
  Alcotest.(check bool) "inside" true (Halfspace.satisfies h (vec [| 0.7; 0.3 |]));
  Alcotest.(check bool) "boundary" true (Halfspace.satisfies h (vec [| 0.5; 0.5 |]));
  Alcotest.(check bool) "outside" false (Halfspace.satisfies h (vec [| 0.3; 0.7 |]))

let test_halfspace_le () =
  let h = Halfspace.le (vec [| 1.; 0. |]) 0.5 in
  Alcotest.(check bool) "inside" true (Halfspace.satisfies h (vec [| 0.4; 0.6 |]));
  Alcotest.(check bool) "outside" false (Halfspace.satisfies h (vec [| 0.6; 0.4 |]))

let test_halfspace_preference () =
  (* Preferring a = (1,0) over b = (0,1) means u_0 >= u_1. *)
  let h = Halfspace.of_preference ~winner:(vec [| 1.; 0. |]) ~loser:(vec [| 0.; 1. |]) () in
  Alcotest.(check bool) "u0 > u1 ok" true (Halfspace.satisfies h (vec [| 0.8; 0.2 |]));
  Alcotest.(check bool) "u0 < u1 not" false (Halfspace.satisfies h (vec [| 0.2; 0.8 |]))

let test_halfspace_preference_delta () =
  (* With delta = 0.5 the constraint weakens to 1.5 u0 >= u1. *)
  let h =
    Halfspace.of_preference ~delta:0.5 ~winner:(vec [| 1.; 0. |]) ~loser:(vec [| 0.; 1. |]) ()
  in
  Alcotest.(check bool) "u = (0.45,0.55) allowed" true
    (Halfspace.satisfies h (vec [| 0.45; 0.55 |]));
  Alcotest.(check bool) "u = (0.2,0.8) excluded" false
    (Halfspace.satisfies h (vec [| 0.2; 0.8 |]))

let test_halfspace_slack () =
  let h = Halfspace.ge (vec [| 2.; 0. |]) 1. in
  Alcotest.(check (float 1e-9)) "slack" 0.2 (Halfspace.slack h (vec [| 0.6; 0.4 |]))

(* Allocation probe: the membership test runs once per cut for every
   cached witness, so it must not touch the minor heap — in particular the
   dot product must not come back boxed from a call into the linear
   algebra library (dune's dev profile compiles every module -opaque, so
   such a call is never inlined). *)
let test_halfspace_satisfies_allocation () =
  let h = Halfspace.ge (vec [| 0.3; -0.2; 0.5; 0.1; -0.4; 0.2 |]) 0.01 in
  let x = vec [| 0.1; 0.2; 0.3; 0.1; 0.2; 0.1 |] in
  let tol = Some 1e-7 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Halfspace.satisfies h x then incr hits;
    if Halfspace.satisfies ?tol h x then incr hits
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all inside" 2000 !hits;
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_simplex_not_empty () =
  let r = Polytope.simplex 3 in
  Alcotest.(check bool) "non-empty" false (Polytope.is_empty r);
  Alcotest.(check int) "dim" 3 (Polytope.dim r)

let test_simplex_dim_guard () =
  Alcotest.check_raises "bad dim"
    (Invalid_argument "Polytope.simplex: dimension must be >= 1") (fun () ->
      ignore (Polytope.simplex 0))

let test_cut_to_empty () =
  let r = Polytope.simplex 2 in
  (* u0 >= 0.8 and u1 >= 0.8 cannot hold with u0 + u1 = 1. *)
  let r = Polytope.cut r (Halfspace.ge (vec [| 1.; 0. |]) 0.8) in
  Alcotest.(check bool) "still feasible" false (Polytope.is_empty r);
  let r = Polytope.cut r (Halfspace.ge (vec [| 0.; 1. |]) 0.8) in
  Alcotest.(check bool) "now empty" true (Polytope.is_empty r)

let test_maximize_on_simplex () =
  let r = Polytope.simplex 3 in
  match Polytope.maximize r (vec [| 0.2; 0.9; 0.5 |]) with
  | Some (v, p) ->
    Alcotest.(check (float 1e-6)) "max is best coord" 0.9 v;
    Alcotest.(check (float 1e-6)) "vertex" 1. (Vec.get p 1)
  | None -> Alcotest.fail "simplex is non-empty"

let test_maximize_empty () =
  let r =
    Polytope.cut_many (Polytope.simplex 2)
      [ Halfspace.ge (vec [| 1.; 0. |]) 0.9; Halfspace.ge (vec [| 0.; 1. |]) 0.9 ]
  in
  Alcotest.(check bool) "none" true (Polytope.maximize r (vec [| 1.; 0. |]) = None)

let test_coordinate_bounds_simplex () =
  let r = Polytope.simplex 3 in
  let bounds = Polytope.coordinate_bounds r in
  Array.iter
    (fun (lo, hi) ->
      Alcotest.(check (float 1e-6)) "lo" 0. lo;
      Alcotest.(check (float 1e-6)) "hi" 1. hi)
    bounds

let test_coordinate_bounds_after_cut () =
  let r = Polytope.cut (Polytope.simplex 2) (Halfspace.ge (vec [| 1.; -1. |]) 0.) in
  (* Region: u0 >= u1, u0 + u1 = 1 -> u0 in [0.5, 1]. *)
  let bounds = Polytope.coordinate_bounds r in
  let lo0, hi0 = bounds.(0) in
  Alcotest.(check (float 1e-6)) "u0 lo" 0.5 lo0;
  Alcotest.(check (float 1e-6)) "u0 hi" 1. hi0

let test_width () =
  let r = Polytope.simplex 2 in
  Alcotest.(check (float 1e-6)) "full width" 1. (Polytope.width r);
  let r = Polytope.cut r (Halfspace.ge (vec [| 1.; -1. |]) 0.) in
  Alcotest.(check (float 1e-6)) "half width" 0.5 (Polytope.width r)

let test_support_width () =
  let r = Polytope.simplex 2 in
  (* Along (1,-1) the simplex spans from (0,1) to (1,0): extent 2. *)
  Alcotest.(check (float 1e-6)) "support" 2. (Polytope.support_width r (vec [| 1.; -1. |]))

let test_diameter_simplex_2d () =
  let r = Polytope.simplex 2 in
  (* True diameter: |(1,0)-(0,1)| = sqrt 2; direction (1,-1) is probed. *)
  Alcotest.(check (float 1e-6)) "diameter" (sqrt 2.) (Polytope.diameter r)

let test_diameter_decreases_with_cuts () =
  let r0 = Polytope.simplex 3 in
  let r1 = Polytope.cut r0 (Halfspace.ge (vec [| 1.; -1.; 0. |]) 0.) in
  Alcotest.(check bool) "monotone" true
    (Polytope.diameter r1 <= Polytope.diameter r0 +. 1e-9)

let test_center_estimate_inside () =
  let r = Polytope.cut (Polytope.simplex 3) (Halfspace.ge (vec [| 1.; -1.; 0. |]) 0.) in
  let c = Polytope.center_estimate r in
  Alcotest.(check bool) "inside" true (Polytope.contains ~tol:1e-6 r c)

let test_contains () =
  let r = Polytope.simplex 3 in
  Alcotest.(check bool) "uniform in" true
    (Polytope.contains r (vec [| 1. /. 3.; 1. /. 3.; 1. /. 3. |]));
  Alcotest.(check bool) "off-simplex out" false (Polytope.contains r (vec [| 0.5; 0.5; 0.5 |]));
  Alcotest.(check bool) "negative out" false (Polytope.contains r (vec [| 1.5; -0.5; 0. |]))

let test_random_point_inside () =
  let r = Polytope.cut (Polytope.simplex 4) (Halfspace.ge (vec [| 1.; -1.; 0.; 0. |]) 0.) in
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let p = Polytope.random_point r rng ~steps:8 in
    Alcotest.(check bool) "sampled inside" true (Polytope.contains ~tol:1e-6 r p)
  done

let test_empty_region_raises () =
  let r =
    Polytope.cut_many (Polytope.simplex 2)
      [ Halfspace.ge (vec [| 1.; 0. |]) 0.9; Halfspace.ge (vec [| 0.; 1. |]) 0.9 ]
  in
  Alcotest.check_raises "width on empty"
    (Invalid_argument "Polytope.coordinate_bounds: empty region") (fun () ->
      ignore (Polytope.width r))

let test_many_consistent_cuts_stress () =
  (* 60 cuts all consistent with one hidden utility: the region must stay
     non-empty, keep containing the utility, and its width must shrink
     monotonically (numerical-robustness stress for the LP path). *)
  let rng = Rng.create 404 in
  for _ = 1 to 5 do
    let d = 3 + Rng.int rng 3 in
    let raw = Vec.init d (fun _ -> 0.05 +. Rng.uniform rng) in
    let total = Vec.sum raw in
    let u = Vec.map (fun x -> x /. total) raw in
    let region = ref (Polytope.simplex d) in
    let last_width = ref (Polytope.width !region) in
    for _ = 1 to 60 do
      let a = Vec.init d (fun _ -> Rng.uniform rng) in
      let b = Vec.init d (fun _ -> Rng.uniform rng) in
      let du = ref 0. in
      Vec.iteri (fun i x -> du := !du +. ((Vec.get a i -. Vec.get b i) *. x)) u;
      let winner, loser = if !du >= 0. then (a, b) else (b, a) in
      region := Polytope.cut !region (Halfspace.of_preference ~winner ~loser ());
      Alcotest.(check bool) "still non-empty" false (Polytope.is_empty !region);
      let w = Polytope.width !region in
      Alcotest.(check bool) "width monotone" true (w <= !last_width +. 1e-7);
      last_width := w
    done;
    Alcotest.(check bool) "u still inside" true (Polytope.contains ~tol:1e-6 !region u)
  done

(* Property: cutting with a preference halfspace keeps exactly the simplex
   points consistent with that preference. *)
let prop_cut_membership =
  QCheck2.Test.make ~count:100 ~name:"cut membership agrees with halfspace"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 4 in
      let a = Vec.init d (fun _ -> Rng.uniform rng) in
      let b = Vec.init d (fun _ -> Rng.uniform rng) in
      let h = Halfspace.of_preference ~winner:a ~loser:b () in
      let r = Polytope.cut (Polytope.simplex d) h in
      (* Random simplex point via exponential normalization. *)
      let raw = Vec.init d (fun _ -> Rng.exponential rng) in
      let total = Vec.sum raw in
      let v = Vec.map (fun x -> x /. total) raw in
      Polytope.contains ~tol:1e-7 r v = Halfspace.satisfies ~tol:1e-7 h v)

(* Property: the complete vertex set (d = 2 interval endpoints, d = 3
   clipped polygon) answers linear extremes like the LP does — every
   vertex lies in the region, and the dot-product max over the vertices
   agrees with [Polytope.maximize] within LP tolerance.  This is the
   soundness contract Lemma 2 pruning relies on when it confirms a prune
   without a confirming LP. *)
let prop_complete_vertices_match_lp =
  QCheck2.Test.make ~count:100 ~name:"complete vertices = LP extremes"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 2 in
      let cuts = Rng.int rng 5 in
      let r = ref (Polytope.simplex d) in
      for _ = 1 to cuts do
        let a = Vec.init d (fun _ -> Rng.uniform rng) in
        let b = Vec.init d (fun _ -> Rng.uniform rng) in
        let cut = Polytope.cut !r (Halfspace.of_preference ~winner:a ~loser:b ()) in
        if not (Polytope.is_empty cut) then r := cut
      done;
      match Polytope.complete_vertices !r with
      | None -> d > 3 (* only acceptable beyond the covered dimensions *)
      | Some vs ->
        vs <> []
        && List.for_all (Polytope.contains ~tol:1e-6 !r) vs
        && (let ok = ref true in
            for _ = 1 to 5 do
              let dir = Vec.init d (fun _ -> Rng.uniform rng -. 0.5) in
              let vertex_max =
                List.fold_left
                  (fun acc v -> Float.max acc (Vec.dot dir v))
                  neg_infinity vs
              in
              match Polytope.maximize !r dir with
              | None -> ok := false
              | Some (lp_max, _) ->
                if Float.abs (vertex_max -. lp_max) > 1e-6 then ok := false
            done;
            !ok))

(* Property: width never increases under cuts. *)
let prop_width_monotone =
  QCheck2.Test.make ~count:60 ~name:"width monotone under cuts"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 3 in
      let r0 = Polytope.simplex d in
      let a = Vec.init d (fun _ -> Rng.uniform rng) in
      let b = Vec.init d (fun _ -> Rng.uniform rng) in
      let r1 = Polytope.cut r0 (Halfspace.of_preference ~winner:a ~loser:b ()) in
      Polytope.is_empty r1 || Polytope.width r1 <= Polytope.width r0 +. 1e-7)

let () =
  Alcotest.run "geometry"
    [
      ( "halfspace",
        [
          Alcotest.test_case "membership" `Quick test_halfspace_membership;
          Alcotest.test_case "le" `Quick test_halfspace_le;
          Alcotest.test_case "preference" `Quick test_halfspace_preference;
          Alcotest.test_case "preference delta" `Quick test_halfspace_preference_delta;
          Alcotest.test_case "slack" `Quick test_halfspace_slack;
          Alcotest.test_case "satisfies allocation" `Quick
            test_halfspace_satisfies_allocation;
        ] );
      ( "polytope",
        [
          Alcotest.test_case "simplex non-empty" `Quick test_simplex_not_empty;
          Alcotest.test_case "dim guard" `Quick test_simplex_dim_guard;
          Alcotest.test_case "cut to empty" `Quick test_cut_to_empty;
          Alcotest.test_case "maximize simplex" `Quick test_maximize_on_simplex;
          Alcotest.test_case "maximize empty" `Quick test_maximize_empty;
          Alcotest.test_case "coordinate bounds" `Quick test_coordinate_bounds_simplex;
          Alcotest.test_case "bounds after cut" `Quick test_coordinate_bounds_after_cut;
          Alcotest.test_case "width" `Quick test_width;
          Alcotest.test_case "support width" `Quick test_support_width;
          Alcotest.test_case "diameter 2d" `Quick test_diameter_simplex_2d;
          Alcotest.test_case "diameter monotone" `Quick test_diameter_decreases_with_cuts;
          Alcotest.test_case "center inside" `Quick test_center_estimate_inside;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "random point inside" `Quick test_random_point_inside;
          Alcotest.test_case "empty raises" `Quick test_empty_region_raises;
          Alcotest.test_case "60-cut stress" `Quick test_many_consistent_cuts_stress;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cut_membership;
          QCheck_alcotest.to_alcotest prop_complete_vertices_match_lp;
          QCheck_alcotest.to_alcotest prop_width_monotone;
        ] );
    ]
