(* One flat Float64 buffer, row-major: row i occupies cells
   [i*cols, (i+1)*cols).  [row_view] is [Vec.sub_view] over that range;
   the simplex row kernels below address rows by offset into the same
   buffer instead, so a pivot allocates no view per row. *)

open Bigarray

type t = { nrows : int; ncols : int; data : Vec.t }

let create nrows ncols =
  if nrows <= 0 || ncols <= 0 then invalid_arg "Mat.create: non-positive size";
  { nrows; ncols; data = Vec.make (nrows * ncols) 0. }

let rows m = m.nrows [@@indq.alloc_free "int field read"]

let cols m = m.ncols [@@indq.alloc_free "int field read"]

let buffer m = Vec.buffer m.data
[@@indq.alloc_free "zero-copy alias of the backing buffer"]

let row_view m i =
  if i < 0 || i >= m.nrows then invalid_arg "Mat.row_view: row out of range";
  Vec.sub_view m.data ~pos:(i * m.ncols) ~len:m.ncols

let of_rows rs =
  if Array.length rs = 0 then invalid_arg "Mat.of_rows: no rows";
  let width = Vec.dim rs.(0) in
  Array.iter
    (fun r -> if Vec.dim r <> width then invalid_arg "Mat.of_rows: ragged rows")
    rs;
  let m = create (Array.length rs) width in
  Array.iteri (fun i r -> Vec.blit ~src:r ~dst:(row_view m i)) rs;
  m

let get m i j =
  if j < 0 || j >= m.ncols then invalid_arg "Mat.get: column out of range";
  Array1.get (Vec.buffer m.data) ((i * m.ncols) + j)
[@@inline]
[@@indq.alloc_free
  "bounds-checked flat read: a column guard over the checked Bigarray load"]

let set m i j x =
  if j < 0 || j >= m.ncols then invalid_arg "Mat.set: column out of range";
  Array1.set (Vec.buffer m.data) ((i * m.ncols) + j) x
[@@inline]
[@@indq.alloc_free
  "bounds-checked flat write: a column guard over the checked Bigarray store"]

(* --- Simplex row kernels -------------------------------------------------

   Each takes only ints: a float argument to a call across compilation
   units is boxed under the dev profile's -opaque, so the multiplier is
   read out of the matrix (or vector) inside the kernel instead.  Every
   cell computes the float expression of the view-based composition named
   in its comment, left to right, so switching to a kernel is
   bit-neutral. *)

let check_rc m ~row ~col name =
  if row < 0 || row >= m.nrows || col < 0 || col >= m.ncols then
    (invalid_arg (name ^ ": index out of range")
    [@indq.alloc_ok
      "cold caller-bug path: the message concat only runs when the guard \
       is about to raise"])
[@@indq.alloc_free "index guard shared by the row kernels"]

(* [Vec.scale_ip (1. /. get m row col) (row_view m row)]. *)
let row_scale_inv_ip m ~row ~col =
  check_rc m ~row ~col "Mat.row_scale_inv_ip";
  let b = Vec.buffer m.data in
  let base = row * m.ncols in
  let c = 1. /. Array1.unsafe_get b (base + col) in
  for j = 0 to m.ncols - 1 do
    Array1.unsafe_set b (base + j) (c *. Array1.unsafe_get b (base + j))
  done
[@@indq.alloc_free "pivot-row normalization of Lp.Live, by offset"]

(* [Vec.axpy_ip (-. get m dst col) (row_view m src) (row_view m dst)],
   with the multiplier read before the sweep overwrites it. *)
let row_axpy_ip m ~col ~src ~dst =
  check_rc m ~row:src ~col "Mat.row_axpy_ip";
  check_rc m ~row:dst ~col "Mat.row_axpy_ip";
  let b = Vec.buffer m.data in
  let s = src * m.ncols and d = dst * m.ncols in
  let c = -.Array1.unsafe_get b (d + col) in
  for j = 0 to m.ncols - 1 do
    Array1.unsafe_set b (d + j)
      ((c *. Array1.unsafe_get b (s + j)) +. Array1.unsafe_get b (d + j))
  done
[@@indq.alloc_free "row elimination kernel of Lp.Live pivots, by offset"]

(* [Vec.axpy_ip (-. Vec.get v col) (row_view m src) v]. *)
let row_axpy_into_ip m ~col ~src v =
  check_rc m ~row:src ~col "Mat.row_axpy_into_ip";
  if Vec.dim v <> m.ncols then
    (invalid_arg "Mat.row_axpy_into_ip: dimension mismatch"
    [@indq.alloc_ok "cold caller-bug path"]);
  let b = Vec.buffer m.data and y = Vec.buffer v in
  let s = src * m.ncols in
  let c = -.Array1.unsafe_get y col in
  for j = 0 to m.ncols - 1 do
    Array1.unsafe_set y j
      ((c *. Array1.unsafe_get b (s + j)) +. Array1.unsafe_get y j)
  done
[@@indq.alloc_free "objective-row elimination kernel of Lp.Live pivots"]

let row m i = Vec.copy (row_view m i)

let col m j = Vec.init m.nrows (fun i -> get m i j)

let mul_vec m v =
  if Vec.dim v <> m.ncols then invalid_arg "Mat.mul_vec: dimension mismatch";
  Vec.init m.nrows (fun i -> Vec.dot (row_view m i) v)

let transpose m =
  let t = create m.ncols m.nrows in
  for i = 0 to m.nrows - 1 do
    for j = 0 to m.ncols - 1 do
      set t j i (get m i j)
    done
  done;
  t

let copy m = { m with data = Vec.copy m.data }

let swap_rows m i j =
  if i <> j then begin
    let ri = row_view m i and rj = row_view m j in
    let tmp = Vec.copy ri in
    Vec.blit ~src:rj ~dst:ri;
    Vec.blit ~src:tmp ~dst:rj
  end

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    Format.fprintf ppf "[";
    Vec.iteri
      (fun j x ->
        if j > 0 then Format.fprintf ppf " ";
        Format.fprintf ppf "%8.4f" x)
      (row_view m i);
    Format.fprintf ppf "]@."
  done
