(* Tests for the flat-Bigarray vector/matrix kernels.

   The property suite checks the abstract [Vec]/[Mat] operations against a
   plain [float array] reference model coordinate by coordinate with
   [Float.equal] — the kernels document left-to-right traversal, so every
   reduction must compute the {i same} float expression as the historical
   array code, bit for bit, not merely within a tolerance. *)

module Vec = Indq_linalg.Vec
module Mat = Indq_linalg.Mat
module Rng = Indq_util.Rng

let vec = Vec.of_array

let vecf = Alcotest.(array (float 1e-9))

let check_vec msg expected v = Alcotest.check vecf msg expected (Vec.to_array v)

let test_basis () =
  check_vec "basis" [| 0.; 1.; 0. |] (Vec.basis 3 1);
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis: index out of range")
    (fun () -> ignore (Vec.basis 3 3))

let test_dot () =
  Alcotest.(check (float 1e-9)) "dot" 32.
    (Vec.dot (vec [| 1.; 2.; 3. |]) (vec [| 4.; 5.; 6. |]));
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec.dot: dimension mismatch")
    (fun () -> ignore (Vec.dot (vec [| 1. |]) (vec [| 1.; 2. |])))

let test_arith () =
  check_vec "add" [| 5.; 7. |] (Vec.add (vec [| 1.; 2. |]) (vec [| 4.; 5. |]));
  check_vec "sub" [| -3.; -3. |] (Vec.sub (vec [| 1.; 2. |]) (vec [| 4.; 5. |]));
  check_vec "scale" [| 2.; 4. |] (Vec.scale 2. (vec [| 1.; 2. |]));
  check_vec "axpy" [| 6.; 9. |] (Vec.axpy 2. (vec [| 1.; 2. |]) (vec [| 4.; 5. |]))

let test_norms () =
  Alcotest.(check (float 1e-9)) "norm2" 5. (Vec.norm2 (vec [| 3.; 4. |]));
  Alcotest.(check (float 1e-9)) "norm_inf" 4. (Vec.norm_inf (vec [| 3.; -4. |]));
  Alcotest.(check (float 1e-9)) "dist2" 5.
    (Vec.dist2 (vec [| 0.; 0. |]) (vec [| 3.; 4. |]));
  check_vec "normalize" [| 0.6; 0.8 |] (Vec.normalize (vec [| 3.; 4. |]));
  Alcotest.check_raises "normalize zero" (Invalid_argument "Vec.normalize: zero vector")
    (fun () -> ignore (Vec.normalize (vec [| 0.; 0. |])))

let test_extrema () =
  Alcotest.(check (float 1e-9)) "sum" 6. (Vec.sum (vec [| 1.; 2.; 3. |]));
  Alcotest.(check (float 1e-9)) "max" 3. (Vec.max_coord (vec [| 1.; 3.; 2. |]));
  Alcotest.(check (float 1e-9)) "min" 1. (Vec.min_coord (vec [| 1.; 3.; 2. |]));
  Alcotest.(check int) "argmax" 1 (Vec.argmax (vec [| 1.; 3.; 2. |]));
  Alcotest.(check int) "argmax first tie" 0 (Vec.argmax (vec [| 3.; 3.; 2. |]))

let test_approx_equal () =
  Alcotest.(check bool) "equal" true
    (Vec.approx_equal (vec [| 1.; 2. |]) (vec [| 1. +. 1e-12; 2. |]));
  Alcotest.(check bool) "different dims" false
    (Vec.approx_equal (vec [| 1. |]) (vec [| 1.; 2. |]));
  Alcotest.(check bool) "different values" false
    (Vec.approx_equal (vec [| 1.; 2. |]) (vec [| 1.; 2.1 |]))

let test_sub_view_aliasing () =
  let v = vec [| 0.; 1.; 2.; 3.; 4. |] in
  let w = Vec.sub_view v ~pos:1 ~len:3 in
  check_vec "view reads through" [| 1.; 2.; 3. |] w;
  Vec.set w 0 9.;
  Alcotest.(check (float 0.)) "view writes through" 9. (Vec.get v 1);
  Vec.scale_ip 2. w;
  check_vec "in-place kernel through view" [| 0.; 18.; 4.; 6.; 4. |] v

(* Allocation probe: a kernel's per-element work stays off the heap.  The
   call itself may box its float argument or result (a cross-module call
   under the dev profile), a constant; what must not happen is a box per
   element, which is what a Bigarray access compiles to when the vector's
   element kind is not known at the access. *)
let test_kernel_allocation () =
  let n = 1024 in
  let a = Vec.init n (fun i -> float_of_int (i mod 7)) in
  let b = Vec.init n (fun i -> float_of_int (i mod 5)) in
  let y = Vec.copy b in
  let m = Mat.of_rows [| a; b |] in
  let words f =
    f ();
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let per_call name w =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g words for %d elements" name w n)
      true (w <= 8.)
  in
  per_call "dot" (words (fun () -> ignore (Vec.dot a b)));
  per_call "axpy_ip" (words (fun () -> Vec.axpy_ip 0.5 a y));
  per_call "scale_ip" (words (fun () -> Vec.scale_ip 1.5 y));
  per_call "row_axpy_ip" (words (fun () -> Mat.row_axpy_ip m ~col:3 ~src:0 ~dst:1))

let test_mat_basic () =
  let m = Mat.of_rows [| vec [| 1.; 2. |]; vec [| 3.; 4. |] |] in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 2 (Mat.cols m);
  Alcotest.(check (float 1e-9)) "get" 3. (Mat.get m 1 0);
  check_vec "row" [| 3.; 4. |] (Mat.row m 1);
  check_vec "col" [| 2.; 4. |] (Mat.col m 1);
  check_vec "mul_vec" [| 5.; 11. |] (Mat.mul_vec m (vec [| 1.; 2. |]))

let test_mat_transpose () =
  let m = Mat.of_rows [| vec [| 1.; 2.; 3. |]; vec [| 4.; 5.; 6. |] |] in
  let mt = Mat.transpose m in
  Alcotest.(check int) "rows" 3 (Mat.rows mt);
  check_vec "row of transpose" [| 2.; 5. |] (Mat.row mt 1)

let test_mat_row_ops () =
  let m = Mat.of_rows [| vec [| 1.; 2. |]; vec [| 3.; 4. |] |] in
  Mat.swap_rows m 0 1;
  check_vec "swapped" [| 3.; 4. |] (Mat.row m 0);
  Mat.row_scale_inv_ip m ~row:0 ~col:1;
  check_vec "scaled by 1/m[0,1]" [| 0.75; 1. |] (Mat.row m 0);
  Mat.row_axpy_ip m ~col:1 ~src:0 ~dst:1;
  check_vec "column 1 eliminated" [| -0.5; 0. |] (Mat.row m 1);
  let v = vec [| 2.; 4. |] in
  Mat.row_axpy_into_ip m ~col:1 ~src:0 v;
  check_vec "into a vector" [| -1.; 0. |] v;
  (* src = dst aliasing: the multiplier (0.5) and every cell are read
     before they are written: row += 0.5 * row. *)
  Mat.row_axpy_ip m ~col:0 ~src:1 ~dst:1;
  check_vec "aliased rows" [| -0.75; 0. |] (Mat.row m 1);
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Mat.row_axpy_ip: index out of range") (fun () ->
      Mat.row_axpy_ip m ~col:0 ~src:0 ~dst:2)

let test_mat_row_view_aliasing () =
  let m = Mat.of_rows [| vec [| 1.; 2. |]; vec [| 3.; 4. |] |] in
  let r1 = Mat.row_view m 1 in
  Vec.axpy_ip 10. (Mat.row_view m 0) r1;
  check_vec "axpy through views" [| 13.; 24. |] (Mat.row m 1);
  Alcotest.(check (float 0.)) "row 0 untouched" 1. (Mat.get m 0 0)

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
    (fun () -> ignore (Mat.of_rows [| vec [| 1. |]; vec [| 1.; 2. |] |]))

(* --- The float-array reference model ----------------------------------- *)

let random_array rng d = Array.init d (fun _ -> Rng.in_range rng (-10.) 10.)

let bit_equal_arrays a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.equal x y) a b

(* Left-to-right reductions, exactly as the kernels document. *)
let model_dot a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let model_sum a = Array.fold_left ( +. ) 0. a

let prop_vec_kernels_match_model =
  QCheck2.Test.make ~count:200 ~name:"Vec kernels = float-array model (bit-exact)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 8 in
      let a = random_array rng d and b = random_array rng d in
      let c = Rng.in_range rng (-3.) 3. in
      let va = vec a and vb = vec b in
      bit_equal_arrays (Vec.to_array (Vec.add va vb))
        (Array.mapi (fun i x -> x +. b.(i)) a)
      && bit_equal_arrays (Vec.to_array (Vec.sub va vb))
           (Array.mapi (fun i x -> x -. b.(i)) a)
      && bit_equal_arrays (Vec.to_array (Vec.scale c va))
           (Array.map (fun x -> c *. x) a)
      && bit_equal_arrays (Vec.to_array (Vec.axpy c va vb))
           (Array.mapi (fun i x -> (c *. x) +. b.(i)) a)
      && Float.equal (Vec.dot va vb) (model_dot a b)
      && Float.equal (Vec.sum va) (model_sum a)
      && Float.equal (Vec.norm_inf va)
           (Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a))

let prop_vec_inplace_matches_pure =
  QCheck2.Test.make ~count:200 ~name:"in-place kernels = allocating kernels"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 8 in
      let a = random_array rng d and b = random_array rng d in
      let c = Rng.in_range rng (-3.) 3. in
      let y1 = vec b in
      Vec.axpy_ip c (vec a) y1;
      let y2 = vec b in
      Vec.scale_ip c y2;
      let y3 = vec b in
      Vec.add_ip y3 (vec a);
      Vec.equal y1 (Vec.axpy c (vec a) (vec b))
      && Vec.equal y2 (Vec.scale c (vec b))
      && Vec.equal y3 (Vec.add (vec b) (vec a)))

let prop_vec_views_alias =
  QCheck2.Test.make ~count:100 ~name:"sub_view writes alias the parent"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 2 + Rng.int rng 8 in
      let a = random_array rng d in
      let pos = Rng.int rng (d - 1) in
      let len = 1 + Rng.int rng (d - pos - 1) in
      let c = Rng.in_range rng (-3.) 3. in
      let v = vec a in
      Vec.scale_ip c (Vec.sub_view v ~pos ~len);
      let expected =
        Array.mapi (fun i x -> if i >= pos && i < pos + len then c *. x else x) a
      in
      bit_equal_arrays (Vec.to_array v) expected)

let prop_mat_row_ops_match_model =
  QCheck2.Test.make ~count:100 ~name:"Mat pivots = float-matrix model (bit-exact)"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let r = 1 + Rng.int rng 5 and cdim = 1 + Rng.int rng 5 in
      let model = Array.init r (fun _ -> random_array rng cdim) in
      let m = Mat.of_rows (Array.map vec model) in
      let col = Rng.int rng cdim in
      let src = Rng.int rng r and dst = Rng.int rng r in
      let obj = random_array rng cdim in
      let v = vec obj in
      (* The pivot step: normalize the pivot row by its pivot cell, then
         eliminate the pivot column from another row (possibly itself —
         aliasing) and from the objective vector. *)
      Mat.row_scale_inv_ip m ~row:src ~col;
      let c = 1. /. model.(src).(col) in
      Array.iteri (fun j x -> model.(src).(j) <- c *. x) (Array.copy model.(src));
      Mat.row_axpy_ip m ~col ~src ~dst;
      let frozen = Array.copy model.(src) in
      let f = -.model.(dst).(col) in
      Array.iteri
        (fun j x -> model.(dst).(j) <- (f *. frozen.(j)) +. x)
        (Array.copy model.(dst));
      Mat.row_axpy_into_ip m ~col ~src v;
      let pivot_row = Array.copy model.(src) in
      let f = -.obj.(col) in
      Array.iteri (fun j x -> obj.(j) <- (f *. pivot_row.(j)) +. x) (Array.copy obj);
      let ok = ref (bit_equal_arrays (Vec.to_array v) obj) in
      for i = 0 to r - 1 do
        for j = 0 to cdim - 1 do
          if not (Float.equal (Mat.get m i j) model.(i).(j)) then ok := false
        done
      done;
      !ok)

let prop_dot_symmetric =
  QCheck2.Test.make ~count:100 ~name:"dot is symmetric"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 6 in
      let a = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      let b = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      Float.abs (Vec.dot a b -. Vec.dot b a) < 1e-9)

let prop_triangle_inequality =
  QCheck2.Test.make ~count:100 ~name:"triangle inequality"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let d = 1 + Rng.int rng 6 in
      let a = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      let b = Vec.init d (fun _ -> Rng.in_range rng (-10.) 10.) in
      Vec.norm2 (Vec.add a b) <= Vec.norm2 a +. Vec.norm2 b +. 1e-9)

let prop_transpose_involution =
  QCheck2.Test.make ~count:50 ~name:"transpose . transpose = id"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let r = 1 + Rng.int rng 4 and c = 1 + Rng.int rng 4 in
      let m =
        Mat.of_rows
          (Array.init r (fun _ -> Vec.init c (fun _ -> Rng.uniform rng)))
      in
      let mtt = Mat.transpose (Mat.transpose m) in
      let same = ref true in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          if Float.abs (Mat.get m i j -. Mat.get mtt i j) > 0. then same := false
        done
      done;
      !same)

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basis" `Quick test_basis;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "norms" `Quick test_norms;
          Alcotest.test_case "extrema" `Quick test_extrema;
          Alcotest.test_case "approx equal" `Quick test_approx_equal;
          Alcotest.test_case "sub_view aliasing" `Quick test_sub_view_aliasing;
          Alcotest.test_case "kernel allocation" `Quick test_kernel_allocation;
        ] );
      ( "mat",
        [
          Alcotest.test_case "basic" `Quick test_mat_basic;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "row ops" `Quick test_mat_row_ops;
          Alcotest.test_case "row_view aliasing" `Quick test_mat_row_view_aliasing;
          Alcotest.test_case "ragged" `Quick test_mat_ragged;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_vec_kernels_match_model;
          QCheck_alcotest.to_alcotest prop_vec_inplace_matches_pure;
          QCheck_alcotest.to_alcotest prop_vec_views_alias;
          QCheck_alcotest.to_alcotest prop_mat_row_ops_match_model;
          QCheck_alcotest.to_alcotest prop_dot_symmetric;
          QCheck_alcotest.to_alcotest prop_triangle_inequality;
          QCheck_alcotest.to_alcotest prop_transpose_involution;
        ] );
    ]
