(** Dense row-major matrices over one flat [Bigarray] buffer, sized for the
    small LP tableaux used by the utility-region geometry (at most a few
    dozen rows/columns).  Rows are contiguous, so {!row_view} exposes a row
    as a zero-copy mutable {!Vec.t}, and the simplex row kernels
    ({!row_scale_inv_ip}, {!row_axpy_ip}, {!row_axpy_into_ip}) stream
    cache-contiguous memory by offset, without a view per row. *)

type t
(** A mutable [rows x cols] matrix of floats. *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val of_rows : Vec.t array -> t
(** Build from row vectors (copied).  All rows must have equal length and
    there must be at least one row. *)

val rows : t -> int

val cols : t -> int

val buffer : t -> Vec.buffer
(** The row-major backing buffer, zero-copy: cell [(i, j)] is at
    [i * cols m + j].  Exists for the allocation-free simplex code in
    [lib/lp]: a cross-module {!get} is never inlined under the dev
    profile's [-opaque] and so boxes its float return, while the checked
    [Bigarray.Array1.get] on this buffer compiles to a plain load. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t
(** A copy of row [i]. *)

val row_view : t -> int -> Vec.t
(** A mutable zero-copy view of row [i]: writes through the view hit the
    matrix.  O(1). *)

val col : t -> int -> Vec.t
(** A copy of column [j]. *)

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix-vector product.  The vector length must equal [cols]. *)

val transpose : t -> t

val copy : t -> t

val swap_rows : t -> int -> int -> unit

(** {2 Simplex row kernels}

    In-place row operations addressed by index.  They take no float
    argument — a float passed across compilation units is boxed under
    [-opaque] — and read their multiplier out of the matrix instead.  Each
    computes, cell by cell and left to right, the same float expression
    as the {!row_view} composition it documents, so it is a bit-neutral
    replacement.  Indices are checked once up front ([Invalid_argument]).
    With [src = dst] every cell is read before it is written, as through
    two aliasing views. *)

val row_scale_inv_ip : t -> row:int -> col:int -> unit
(** [row_scale_inv_ip m ~row ~col] multiplies row [row] by
    [1. /. get m row col]:
    [Vec.scale_ip (1. /. get m row col) (row_view m row)]. *)

val row_axpy_ip : t -> col:int -> src:int -> dst:int -> unit
(** [row_axpy_ip m ~col ~src ~dst] eliminates column [col] from row [dst]
    with row [src]: with [f = get m dst col] read first, it is
    [Vec.axpy_ip (-.f) (row_view m src) (row_view m dst)]. *)

val row_axpy_into_ip : t -> col:int -> src:int -> Vec.t -> unit
(** [row_axpy_into_ip m ~col ~src v] is {!row_axpy_ip} into a separate
    vector of length [cols m]: with [f = Vec.get v col] read first,
    [Vec.axpy_ip (-.f) (row_view m src) v]. *)

val pp : Format.formatter -> t -> unit
