(** A dense two-phase primal simplex linear-programming solver with an
    incremental dual-simplex re-optimization path.

    This is the workhorse behind every feasible-utility-region operation in
    the reproduction: emptiness checks after hyperplane updates (Section V),
    the Lemma 2 pruning test, and the width/diameter metrics of the MinR and
    MinD heuristics.  Problems here are small — [d <= 10] variables and a few
    dozen constraints — so a dense tableau is both simple and fast.  The
    tableau lives in one flat row-major {!Indq_linalg.Mat.t} buffer, so each
    pivot streams cache-contiguous rows through the
    {!Indq_linalg.Mat.row_axpy_ip} / [row_scale_inv_ip] kernels, and no
    pivot, ratio test or objective install allocates.

    All structural variables are constrained to be non-negative ([x >= 0]),
    which matches utility vectors [u] in the non-negative orthant.  General
    constraints of the three relations [<=], [>=], [=] are supported via
    slack, surplus and artificial variables.

    {b Incremental path.}  The interactive loop refines a region by adding
    {i one} halfspace at a time — the textbook dual-simplex case.  {!Live}
    keeps a solved tableau alive across such refinements: {!Live.add_cut}
    appends the new row, re-expresses it in the current basis and restores
    primal feasibility by dual pivots (often zero, when the current optimum
    already satisfies the cut), and {!Live.optimize} re-optimizes any new
    objective from the current feasible basis without ever re-running
    phase 1.  Every failure is typed and non-destructive to callers: a
    handle that cannot continue reports it and the caller falls back to the
    cold two-phase {!solve}.  The two paths are metered disjointly: every
    live-tableau pivot (phase-1 setup, cut absorption, re-optimization)
    counts in ["lp.dual_pivots"] with re-optimizations in
    ["lp.dual_reopt"] and the ["lp.pivots_per_reopt"] histogram, while
    cold solves keep ["lp.solves"] / ["lp.iterations"] /
    ["lp.pivots_per_solve"] to themselves — so ["lp.iterations"] vs
    ["lp.dual_pivots"] compares the legacy and incremental engines
    directly.

    {b Failure model.}  Every solve runs under a hard pivot budget with the
    fast Dantzig entering rule; a solve that exhausts it (a degenerate cycle,
    or the armed [inject.lp_iteration_cap] fault) is rebuilt and rerun under
    Bland's anti-cycling rule, which provably terminates (counted in
    ["retry.attempts"]).  A solve that cannot finish even then — budget
    exhausted again, or a non-finite value in the tableau (guarded at every
    pivot, at the final solution, and plantable via [inject.lp_nan_pivot]) —
    returns the typed {!Failed} outcome (counted in ["lp.failures"], with
    fallback exhaustion in ["retry.exhausted"]) instead of looping or
    raising. *)

module Vec := Indq_linalg.Vec

type relation = Le | Ge | Eq

type constr = {
  coeffs : Vec.t;  (** one coefficient per structural variable *)
  relation : relation;
  rhs : float;
}
(** The linear constraint [coeffs . x  <relation>  rhs]. *)

type solution = {
  objective : float;  (** optimal objective value *)
  point : Vec.t;  (** an optimal assignment of the structural variables *)
}

type error =
  | Iteration_limit of { budget : int }
      (** the pivot budget ran out under both the Dantzig and the Bland
          entering rule *)
  | Numerical of { detail : string }
      (** a non-finite value surfaced in the tableau or the optimal
          solution *)

type outcome =
  | Optimal of solution
  | Infeasible  (** no [x >= 0] satisfies the constraints *)
  | Unbounded  (** the objective is unbounded over the feasible set *)
  | Failed of error
      (** the solver could not reach a verdict; see {!error}.  Callers must
          treat the region as {i unknown}, never as empty or feasible. *)

val constr : Vec.t -> relation -> float -> constr
(** Convenience constructor. *)

val error_message : error -> string
(** Human-readable rendering of a solver failure. *)

val solve :
  ?tol:float ->
  ?max_pivots:int ->
  n:int ->
  objective:Vec.t ->
  [ `Minimize | `Maximize ] ->
  constr list ->
  outcome
(** [solve ~n ~objective dir constraints] runs the cold two-phase primal
    simplex: phase 1 finds a feasible basis (artificial variables), phase 2
    optimizes the requested objective.

    [?max_pivots] overrides the pivot budget per attempt (the default is
    ample for this solver's problem sizes); an exhausted budget triggers
    the Bland's-rule fallback described in the module header, and {!Failed}
    only after both attempts exhaust it. *)

val maximize : ?tol:float -> n:int -> objective:Vec.t -> constr list -> outcome
(** [maximize ~n ~objective constraints] solves
    [max objective . x  s.t.  constraints, x >= 0] with [n] structural
    variables.  [tol] (default 1e-9) is the pivoting tolerance.  Raises
    [Invalid_argument] if any coefficient vector does not have length [n]. *)

val minimize : ?tol:float -> n:int -> objective:Vec.t -> constr list -> outcome
(** Same, minimizing. *)

val feasible_point : ?tol:float -> n:int -> constr list -> Vec.t option
(** [feasible_point ~n constraints] is [Some x] for some feasible [x >= 0],
    or [None] when the system is infeasible. *)

val is_feasible : ?tol:float -> n:int -> constr list -> bool
(** [feasible_point <> None]. *)

(** A live simplex tableau kept across one-halfspace refinements.

    The handle owns a tableau standing at a {i primal-feasible} basis of
    its constraint list (optimal for the last objective it optimized).
    {!add_cut} extends the list by one constraint via the dual simplex;
    {!copy} and {!fork} duplicate the tableau so one parent setup is
    reused across many candidate children (the Lemma 2 batch shape);
    {!optimize} answers any
    number of objectives over the same list from the standing basis.

    Handles are single-domain mutable state and — like every cache in the
    incremental engine — confined behind {!Indq_geom.Polytope} (lint rule
    IND005).  Values produced by {!optimize} match the cold {!solve} to
    float round-off but are {b not} guaranteed bit-identical (a different
    pivot path may land on a different vertex of a degenerate optimal
    face), so callers must route them into verdict-grade decisions or
    margin-guarded hints only, never into strict value comparisons. *)
module Live : sig
  type t

  val create :
    ?tol:float ->
    ?max_pivots:int ->
    n:int ->
    constr list ->
    [ `Feasible of t | `Infeasible | `Failed of error ]
  (** Build a tableau over the constraint list and run phase 1 to a
      feasible basis (Dantzig with the usual budget, Bland retry on
      exhaustion).  [`Feasible] hands back the live handle. *)

  val copy : t -> t
  (** A fresh, independent tableau with the same state: the copy refines
      on its own.  O(rows·cols), and it allocates a new capacity grid —
      use it for tableaux that are kept (a region's frozen tableau). *)

  val same_shape : t -> t -> bool
  (** Whether two handles share the variable count, tolerance, pivot
      budget and capacity grid — the condition under which {!fork} reuses
      its target. *)

  val fork : ?into:t -> t -> t
  (** [fork ~into h] is {!copy} without the allocation, for a throwaway
      tableau a query pivots on and then drops.  When [into] is not [h]
      and {!same_shape}[ h into], [h]'s state is blitted over [into] and
      [into] is returned; otherwise (or without [into]) the result is
      [copy h].  Either way the result is bit-identical to [copy h] in
      every later operation, and [h] is not touched.  [into] is
      overwritten, so the caller must own it: a handle that something
      else still reads (a frozen tableau, an earlier fork still in use)
      must never be passed. *)

  val n : t -> int
  (** Number of structural variables. *)

  val usable : t -> bool
  (** [false] once an operation failed or reported [Unbounded]: the
      tableau is mid-pivot and every later operation answers [`Failed] /
      {!Failed} without touching it.  Callers rebuild via {!create} or
      fall back to {!solve}. *)

  val point : t -> Vec.t
  (** The basic solution at the standing basis — a feasible point of the
      constraint list.  Read-only: the tableau is not touched, so forks of
      this handle pivot identically whether or not [point] was called. *)

  val add_cut : t -> constr -> [ `Sat | `Reopt of int | `Infeasible | `Failed of error ]
  (** Append one constraint and restore primal feasibility by dual-simplex
      pivots on the appended row ([Eq] appends two rows).  [`Sat]: the
      standing vertex already satisfies the cut — zero pivots, and the
      region is certified non-empty.  [`Reopt k]: feasibility restored
      after [k] dual pivots (region non-empty).  [`Infeasible]: the dual
      ratio test certified the extended system infeasible — the verdict is
      exact and final, and the handle becomes unusable.  Counted in
      ["lp.dual_reopt"] / ["lp.dual_pivots"]. *)

  val optimize :
    t -> objective:Vec.t -> [ `Minimize | `Maximize ] -> outcome
  (** Re-optimize a fresh objective from the standing feasible basis
      (phase 2 only, no artificials ever re-enter).  On {!Optimal} the
      handle stands at that optimum, ready for the next {!add_cut} /
      {!optimize}.  Counted in ["lp.dual_reopt"]; pivots land in
      ["lp.dual_pivots"] and the ["lp.pivots_per_reopt"] histogram. *)
end
