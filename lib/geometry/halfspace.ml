module Vec = Indq_linalg.Vec
module Lp = Indq_lp.Lp

type t = { normal : Vec.t; offset : float }

let ge normal offset =
  if Vec.dim normal = 0 then invalid_arg "Halfspace.ge: empty normal";
  { normal = Vec.copy normal; offset }

let le normal offset = ge (Vec.neg normal) (-.offset)

let dim h = Vec.dim h.normal

let of_preference ?(delta = 0.) ~winner ~loser () =
  if delta < 0. then invalid_arg "Halfspace.of_preference: negative delta";
  let normal = Vec.sub (Vec.scale (1. +. delta) winner) loser in
  ge normal 0.

(* [Vec.dot h.normal x -. h.offset], with the dot product taken here over
   the flat buffers: under dune's dev profile (-opaque) a cross-module
   [Vec.dot] is never inlined, so its float return would be boxed, and the
   membership test runs once per cut for every cached witness.  Same
   products, same left-to-right sum. *)
let slack h x =
  let n = Vec.buffer h.normal and p = Vec.buffer x in
  let d = Bigarray.Array1.dim n in
  if Bigarray.Array1.dim p <> d then
    (invalid_arg "Vec.dot: dimension mismatch"
    [@indq.alloc_ok "cold caller-bug path: raises before any arithmetic"]);
  let acc = ref 0. in
  for i = 0 to d - 1 do
    acc := !acc +. (Bigarray.Array1.get n i *. Bigarray.Array1.get p i)
  done;
  !acc -. h.offset
[@@inline]
[@@indq.alloc_free "flat-buffer dot product with a local accumulator"]

(* [Floatx.geq ?tol (slack h x) 0.], spelled out so the slack stays an
   unboxed local. *)
let satisfies ?tol h x =
  let tol =
    match tol with Some t -> t | None -> Indq_util.Floatx.default_tolerance
  in
  slack h x >= 0. -. tol
[@@indq.alloc_free "inlined slack compared against a local threshold"]

let to_lp_constr h = Lp.constr h.normal Lp.Ge h.offset

let pp ppf h =
  Format.fprintf ppf "%a . x >= %.6g" Vec.pp h.normal h.offset
