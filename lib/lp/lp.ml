module Counter = Indq_obs.Counter
module Histogram = Indq_obs.Histogram
module Fault = Indq_fault.Fault
module Vec = Indq_linalg.Vec
module Mat = Indq_linalg.Mat

(* The tableau kernels below read and write the flat buffers through the
   checked [Array1] primitives ([A.get] / [A.set] on [Mat.buffer] /
   [Vec.buffer]), never through [Vec.get] / [Mat.get]: under dune's dev
   profile every module is compiled [-opaque], so a call into another
   compilation unit is never inlined and each float it returns is boxed.
   The primitives compile to plain loads and stores in every profile, and
   the row sweeps run through the int-only [Mat] row kernels.  Same
   operations, same order: no float changes (DESIGN.md §10). *)
module A = Bigarray.Array1

let c_solves = Counter.make "lp.solves"
let c_iterations = Counter.make "lp.iterations"
let c_dual_reopt = Counter.make "lp.dual_reopt"
let c_dual_pivots = Counter.make "lp.dual_pivots"
let c_failures = Counter.make "lp.failures"
let c_retry_attempts = Counter.make "retry.attempts"
let c_retry_exhausted = Counter.make "retry.exhausted"

(* Counters and pivot histograms are split by path, disjointly.  Cold
   two-phase [solve] calls count in [lp.solves], pivot into
   [lp.iterations], and observe [lp.pivots_per_solve] (all attempts:
   Dantzig, Bland retry).  Live-tableau operations — phase-1 setup in
   [Live.create], dual-simplex cut absorption in [add_cut], phase-2-only
   re-optimization in [optimize] — pivot into [lp.dual_pivots], count
   re-optimizations in [lp.dual_reopt], and observe
   [lp.pivots_per_reopt].  A pivot lands in exactly one of
   [lp.iterations] / [lp.dual_pivots] (decided by which tableau it runs
   on), so the two counters compare the legacy and incremental engines
   directly.  Each histogram is measured as the delta of its path's
   counter around the call; pivot counts are integers, so every
   histogram (including its float sum) merges exactly across domains. *)
let h_pivots_per_solve = Histogram.make "lp.pivots_per_solve"
let h_pivots_per_reopt = Histogram.make "lp.pivots_per_reopt"

type relation = Le | Ge | Eq

type constr = { coeffs : Vec.t; relation : relation; rhs : float }

type solution = { objective : float; point : Vec.t }

type error =
  | Iteration_limit of { budget : int }
  | Numerical of { detail : string }

type outcome = Optimal of solution | Infeasible | Unbounded | Failed of error

let constr coeffs relation rhs = { coeffs; relation; rhs }

let error_message = function
  | Iteration_limit { budget } ->
    Printf.sprintf
      "iteration budget of %d pivots exhausted under both pivot rules" budget
  | Numerical { detail } -> "numerical failure: " ^ detail

(* Internal escape hatch for corrupted arithmetic: raised where the tableau
   turns out to hold a non-finite value, caught in [solve] / [Live] and
   surfaced as [Failed (Numerical _)].  Never leaves this module. *)
exception Bad_pivot of string

(* Internal mutable tableau for the simplex.

   Columns: [0, n) structural vars, [n, art_start) slack/surplus vars,
   [art_start, art_end) artificial vars, [art_end, ncols) slacks of rows
   appended later by [Live.add_cut].  The live area is rows [0, m) and
   columns [0, ncols) of a capacity grid: [data] rows keep every cell
   beyond [ncols] at 0 and [obj] likewise, so whole-row kernel sweeps are
   sound and appending a column is O(1) amortized.  Each row i carries its
   right-hand side in [rhs.(i)]; the variable basic in row i is
   [basis.(i)].  The objective row [obj] holds reduced costs for the
   current basis and [obj_value] the negated objective so far (standard
   tableau bookkeeping), kept in a one-cell float array so a pivot's
   update is an unboxed store rather than a boxed mixed-record field. *)
type tableau = {
  n : int;  (* structural variables *)
  art_start : int;  (* first artificial column *)
  art_end : int;  (* one past the last artificial column *)
  mutable m : int;  (* live rows *)
  mutable ncols : int;  (* live columns *)
  mutable data : Mat.t;  (* capacity grid; live rows/cols as above *)
  mutable rhs : Vec.t;  (* capacity [Mat.rows data] *)
  mutable basis : int array;  (* capacity [Mat.rows data] *)
  mutable obj : Vec.t;  (* capacity [Mat.cols data] *)
  obj_value : float array;  (* one cell *)
  mutable iters : int;  (* pivots performed on this tableau *)
  tol : float;
  live : bool;  (* pivots count in lp.dual_pivots, not lp.iterations *)
}

let check_inputs ~n objective constraints =
  if n <= 0 then invalid_arg "Lp: need at least one variable";
  if Vec.dim objective <> n then invalid_arg "Lp: objective length <> n";
  List.iter
    (fun (c : constr) ->
      if Vec.dim c.coeffs <> n then
        invalid_arg "Lp: constraint coefficient length <> n")
    constraints

(* Build the phase-1 tableau.  Every row is first normalized to rhs >= 0.
   [reserve] leaves headroom in both dimensions for rows a [Live] handle
   appends later. *)
let build ~tol ~n ?(reserve = 0) ?(live = false) constraints =
  let cs = Array.of_list constraints in
  let m = Array.length cs in
  (* Count extra columns. *)
  let slack_count =
    Array.fold_left
      (fun acc (c : constr) ->
        match c.relation with Le | Ge -> acc + 1 | Eq -> acc)
      0 cs
  in
  (* Normalize rows so rhs >= 0, which may flip the relation.  A >= row
     with rhs exactly 0 is rewritten as a <= row (negated): its slack can
     start basic at 0, avoiding an artificial variable — the common case
     for preference-hyperplane cuts [(a - b) . v >= 0]. *)
  let normalized =
    Array.map
      (fun (c : constr) ->
        if c.rhs < 0. || (Float.equal c.rhs 0. && c.relation = Ge) then
          let flipped =
            match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq
          in
          { coeffs = Vec.neg c.coeffs; relation = flipped; rhs = -.c.rhs }
        else c)
      cs
  in
  (* A <= row with rhs >= 0 starts with its slack basic; >= and = rows need
     an artificial.  Count artificials. *)
  let art_count =
    Array.fold_left
      (fun acc (c : constr) ->
        match c.relation with Le -> acc | Ge | Eq -> acc + 1)
      0 normalized
  in
  let art_start = n + slack_count in
  let art_end = art_start + art_count in
  let cap_rows = m + reserve and cap_cols = art_end + reserve in
  let data = Mat.create (max cap_rows 1) (max cap_cols 1) in
  let rhs = Vec.make (max cap_rows 1) 0. in
  let basis = Array.make (max cap_rows 1) (-1) in
  let next_slack = ref n in
  let next_art = ref art_start in
  Array.iteri
    (fun i (c : constr) ->
      let row = Mat.row_view data i in
      Vec.blit ~src:c.coeffs ~dst:(Vec.sub_view row ~pos:0 ~len:n);
      Vec.set rhs i c.rhs;
      match c.relation with
      | Le ->
        Vec.set row !next_slack 1.;
        basis.(i) <- !next_slack;
        incr next_slack
      | Ge ->
        Vec.set row !next_slack (-1.);
        incr next_slack;
        Vec.set row !next_art 1.;
        basis.(i) <- !next_art;
        incr next_art
      | Eq ->
        Vec.set row !next_art 1.;
        basis.(i) <- !next_art;
        incr next_art)
    normalized;
  (* Phase-1 objective: minimize the sum of artificials.  Express its reduced
     costs for the starting basis by subtracting each artificial's row. *)
  let obj = Vec.make (max cap_cols 1) 0. in
  for j = art_start to art_end - 1 do
    Vec.set obj j 1.
  done;
  let obj_value = ref 0. in
  for i = 0 to m - 1 do
    if basis.(i) >= art_start && basis.(i) < art_end then begin
      Vec.axpy_ip (-1.) (Mat.row_view data i) obj;
      obj_value := !obj_value -. Vec.get rhs i
    end
  done;
  { n; art_start; art_end; m; ncols = art_end; data; rhs; basis; obj;
    obj_value = [| !obj_value |]; iters = 0; tol; live }

let tableau_corrupt t =
  let bad x = not (Float.is_finite x) in
  let live_bad v len =
    let hit = ref false in
    for i = 0 to len - 1 do
      if bad (Vec.get v i) then hit := true
    done;
    !hit
  in
  let rows_bad = ref false in
  for i = 0 to t.m - 1 do
    if live_bad (Mat.row_view t.data i) t.ncols then rows_bad := true
  done;
  live_bad t.rhs t.m || live_bad t.obj t.ncols || !rows_bad

let pivot t ~row ~col =
  Counter.incr (if t.live then c_dual_pivots else c_iterations);
  t.iters <- t.iters + 1;
  let a = Mat.buffer t.data and w = Mat.cols t.data in
  let rhs = Vec.buffer t.rhs in
  let pivot_value = A.get a ((row * w) + col) in
  if
    not
      ((Float.is_finite pivot_value)
      [@indq.alloc_ok
        "allocation-free by inspection (x -. x = 0. under the hood) but \
         outside the annotated surface"])
  then
    (raise
       (Bad_pivot
          (Printf.sprintf "non-finite pivot element in row %d, column %d" row
             col))
    [@indq.alloc_ok
      "cold failure path: the exception payload only materializes when \
       the tableau is already corrupt"]);
  Mat.row_scale_inv_ip t.data ~row ~col;
  A.set rhs row (A.get rhs row /. pivot_value);
  (* Cells beyond [ncols] are zero in every row and in [obj], so the
     full-capacity kernel sweeps below leave them zero. *)
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let factor = A.get a ((i * w) + col) in
      if Float.abs factor > 0. then begin
        Mat.row_axpy_ip t.data ~col ~src:row ~dst:i;
        A.set rhs i (A.get rhs i -. (factor *. A.get rhs row))
      end
    end
  done;
  let factor = A.get (Vec.buffer t.obj) col in
  if Float.abs factor > 0. then begin
    Mat.row_axpy_into_ip t.data ~col ~src:row t.obj;
    t.obj_value.(0) <- t.obj_value.(0) -. (factor *. A.get rhs row)
  end;
  t.basis.(row) <- col
[@@indq.alloc_free
  "dual-simplex pivot kernel: flat-buffer reads and the int-only Mat row \
   kernels; nothing per row or per pivot reaches the heap"]

(* Columns an entering pivot may use once phase 1 has ended: artificials
   are frozen, everything else — structural, slack, appended slack — is
   fair.  In phase 1 ([~phase2:false]) every column is. *)
let col_allowed t j = j < t.art_start || j >= t.art_end
[@@indq.alloc_free "two int compares"]

(* Entering column under the requested pivot rule, or -1 at optimality.
   Dantzig picks the most negative reduced cost (smallest index on exact
   ties) — fast, but can cycle on degenerate problems; Bland picks the
   smallest index with a negative reduced cost, which provably terminates. *)
let entering_column t ~rule ~phase2 =
  let obj = Vec.buffer t.obj in
  match rule with
  | `Bland ->
    let entering = ref (-1) in
    let j = ref 0 in
    while !entering < 0 && !j < t.ncols do
      if ((not phase2) || col_allowed t !j) && A.get obj !j < -.t.tol then
        entering := !j;
      incr j
    done;
    !entering
  | `Dantzig ->
    let entering = ref (-1) in
    let best = ref (-.t.tol) in
    for j = 0 to t.ncols - 1 do
      if ((not phase2) || col_allowed t j) && A.get obj j < !best then begin
        entering := j;
        best := A.get obj j
      end
    done;
    !entering
[@@indq.alloc_free "reduced-cost scan over the flat objective row"]

(* Primal ratio test for entering column [col]: the leaving row, with the
   Bland tie-break on the smallest basic variable index, or -1 when no row
   bounds the column (unbounded). *)
let ratio_row t col =
  let best_row = ref (-1) in
  let best_ratio = ref infinity in
  let cells = Mat.buffer t.data and w = Mat.cols t.data in
  let rhs = Vec.buffer t.rhs in
  for i = 0 to t.m - 1 do
    let a = A.get cells ((i * w) + col) in
    if a > t.tol then begin
      let ratio = A.get rhs i /. a in
      if
        ratio < !best_ratio -. t.tol
        || (Float.abs (ratio -. !best_ratio) <= t.tol
           && (!best_row < 0 || t.basis.(i) < t.basis.(!best_row)))
      then begin
        best_row := i;
        best_ratio := ratio
      end
    end
  done;
  !best_row
[@@indq.alloc_free "column scan over the flat tableau and rhs"]

(* One simplex run on the current objective row.  [~phase2] freezes the
   artificial columns; [fuel] is the remaining pivot budget, shared across
   phases of one attempt.  Returns [`Optimal], [`Unbounded], or [`Budget]
   when the fuel runs out with the tableau still improvable. *)
let solve_phase t ~rule ~phase2 ~fuel =
  let rec iterate () =
    let col = entering_column t ~rule ~phase2 in
    if col < 0 then `Optimal
    else if !fuel <= 0 then `Budget
    else begin
      let row = ratio_row t col in
      if row < 0 then `Unbounded
      else begin
        decr fuel;
        pivot t ~row ~col;
        iterate ()
      end
    end
  in
  iterate ()

(* Drive any artificial variable that is still basic (necessarily at value
   ~0) out of the basis, or mark its row as redundant by leaving it — the row
   then has all-zero structural coefficients and never constrains phase 2
   because artificial columns are frozen. *)
let expel_artificials t =
  let cells = Mat.buffer t.data and w = Mat.cols t.data in
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= t.art_start && t.basis.(i) < t.art_end then begin
      let col = ref (-1) in
      let j = ref 0 in
      while !col < 0 && !j < t.art_start do
        if Float.abs (A.get cells ((i * w) + !j)) > t.tol then col := !j;
        incr j
      done;
      if !col >= 0 then pivot t ~row:i ~col:!col
    end
  done

let extract_point t =
  let x =
    (Vec.make t.n 0.
    [@indq.alloc_ok "the result point: the one allocation a solve returns"])
  in
  let xb = Vec.buffer x and rhs = Vec.buffer t.rhs in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    if b < t.n then A.set xb b (A.get rhs i)
  done;
  x
[@@indq.alloc_free "basic-solution read-out over the flat rhs"]

(* The optimal solution of a finished tableau, validated finite: corrupted
   arithmetic that slipped past the per-pivot guard is caught here instead
   of leaking NaN into geometry. *)
let final_solution t =
  let objective = -.t.obj_value.(0) in
  let point = extract_point t in
  if Float.is_finite objective && Vec.for_all Float.is_finite point then
    Ok { objective; point }
  else Error "non-finite optimal solution"

(* Install a fresh objective (phase 2) and express it in terms of the current
   basis.  The internal sense is always minimization, so a maximization
   installs the negated objective ([-.c], the coordinates of [Vec.neg c]).
   The objective row is overwritten in place: no tableau shares it. *)
let install_objective t direction objective =
  let obj = Vec.buffer t.obj and c = Vec.buffer objective in
  for j = 0 to A.dim obj - 1 do
    A.set obj j 0.
  done;
  (match direction with
  | `Minimize ->
    for j = 0 to t.n - 1 do
      A.set obj j (A.get c j)
    done
  | `Maximize ->
    for j = 0 to t.n - 1 do
      A.set obj j (-.A.get c j)
    done);
  let rhs = Vec.buffer t.rhs in
  let obj_value = ref 0. in
  for i = 0 to t.m - 1 do
    let b = t.basis.(i) in
    let factor = A.get obj b in
    if Float.abs factor > 0. then begin
      Mat.row_axpy_into_ip t.data ~col:b ~src:i t.obj;
      obj_value := !obj_value -. (factor *. A.get rhs i)
    end
  done;
  t.obj_value.(0) <- !obj_value
[@@indq.alloc_free
  "objective install over the flat buffers, in place: the row is \
   overwritten, never reallocated"]

(* Default pivot budget: generous for the small problems this solver sees
   (d <= 10 variables, a few dozen constraints need well under a hundred
   pivots), yet finite, so a degenerate cycle under the Dantzig rule is cut
   off and retried under Bland instead of spinning forever. *)
let default_budget ~n ~m = 1000 + (50 * (n + (3 * m)))

let finish direction outcome =
  match (direction, outcome) with
  | `Maximize, Optimal { objective; point } ->
    Optimal { objective = -.objective; point }
  | _, o -> o

let solve_lp ?(tol = 1e-9) ?max_pivots ~n ~objective direction constraints =
  check_inputs ~n objective constraints;
  Counter.incr c_solves;
  let finish o = finish direction o in
  if constraints = [] then begin
    (* Only x >= 0: the minimum is 0 at the origin unless some objective
       coefficient is negative, in which case the problem is unbounded. *)
    let cost =
      match direction with
      | `Minimize -> objective
      | `Maximize -> Vec.neg objective
    in
    if Vec.exists (fun c -> c < -.tol) cost then finish Unbounded
    else finish (Optimal { objective = 0.; point = Vec.make n 0. })
  end
  else begin
    let m = List.length constraints in
    let budget =
      match max_pivots with Some b -> max 0 b | None -> default_budget ~n ~m
    in
    (* Injection sites.  The iteration-cap site collapses only the *primary*
       budget, so the Bland fallback is what recovers; the NaN site corrupts
       the freshly built tableau, which the corruption scan turns into the
       typed [Failed (Numerical _)]. *)
    let primary_budget =
      if Fault.fire "inject.lp_iteration_cap" then 0 else budget
    in
    let nan_injected = Fault.fire "inject.lp_nan_pivot" in
    let build_tableau () =
      let t = build ~tol ~n constraints in
      if nan_injected then begin
        Vec.set t.rhs 0 Float.nan;
        if tableau_corrupt t then raise (Bad_pivot "non-finite tableau entry")
      end;
      t
    in
    (* One cold two-phase attempt under [rule].  [`Budget] means the fuel ran
       out mid-pivot; numerical corruption escapes as [Bad_pivot]. *)
    let cold rule fuel =
      let t = build_tableau () in
      match solve_phase t ~rule ~phase2:false ~fuel with
      | `Budget -> `Budget
      | `Unbounded ->
        (* Phase-1 objective (sum of artificials, all bounded below by 0) can
           never be unbounded; treat as numerically infeasible. *)
        `Done (finish Infeasible)
      | `Optimal ->
        (* obj_value holds the negated phase-1 objective. *)
        if -.t.obj_value.(0) > 1e-7 then `Done (finish Infeasible)
        else begin
          expel_artificials t;
          install_objective t direction objective;
          match solve_phase t ~rule ~phase2:true ~fuel with
          | `Budget -> `Budget
          | `Unbounded -> `Done (finish Unbounded)
          | `Optimal ->
            (match final_solution t with
            | Error detail -> raise (Bad_pivot detail)
            | Ok s -> `Done (finish (Optimal s)))
        end
    in
    let fail err =
      Counter.incr c_failures;
      Failed err
    in
    match cold `Dantzig (ref primary_budget) with
    | `Done r -> r
    | exception Bad_pivot detail -> fail (Numerical { detail })
    | `Budget ->
      (* Anti-cycling fallback: rebuild and rerun under Bland's rule,
         which cannot cycle.  Exhausting the budget even there is
         surfaced as the typed iteration-limit failure. *)
      Counter.incr c_retry_attempts;
      (match cold `Bland (ref budget) with
      | `Done r -> r
      | exception Bad_pivot detail -> fail (Numerical { detail })
      | `Budget ->
        Counter.incr c_retry_exhausted;
        fail (Iteration_limit { budget }))
  end

let solve ?tol ?max_pivots ~n ~objective direction constraints =
  let pivots_before = Counter.value c_iterations in
  let result = solve_lp ?tol ?max_pivots ~n ~objective direction constraints in
  Histogram.observe h_pivots_per_solve
    (Counter.value c_iterations -. pivots_before);
  result

let minimize ?tol ~n ~objective constraints =
  solve ?tol ~n ~objective `Minimize constraints

let maximize ?tol ~n ~objective constraints =
  solve ?tol ~n ~objective `Maximize constraints

let feasible_point ?tol ~n constraints =
  match minimize ?tol ~n ~objective:(Vec.make n 0.) constraints with
  | Optimal { point; _ } -> Some point
  | Infeasible -> None
  | Unbounded -> None
  | Failed _ -> None

let is_feasible ?tol ~n constraints = feasible_point ?tol ~n constraints <> None

(* --- Live handles: dual-simplex re-optimization ------------------------ *)

module Live = struct
  type handle = {
    tab : tableau;
    max_pivots : int option;
    mutable ok : bool;  (* false once the tableau is mid-pivot garbage *)
  }
  (* [tab]'s immutable fields and capacity pin a handle's shape; [fork]
     reuses a same-shape handle by overwriting every mutable field. *)

  type t = handle

  let n h = h.tab.n

  let usable h = h.ok

  let point h = extract_point h.tab

  let budget h =
    match h.max_pivots with
    | Some b -> max 0 b
    | None -> default_budget ~n:h.tab.n ~m:h.tab.m

  (* Grow the capacity grid.  Fresh cells are zero, preserving the
     "dead area is all zeros" invariant the pivot sweeps rely on. *)
  let ensure_capacity t ~rows ~cols =
    let cap_rows = Mat.rows t.data and cap_cols = Mat.cols t.data in
    if rows > cap_rows || cols > cap_cols then begin
      let new_rows = if rows > cap_rows then max rows (2 * cap_rows) else cap_rows in
      let new_cols = if cols > cap_cols then max cols (2 * cap_cols) else cap_cols in
      let data = Mat.create new_rows new_cols in
      for i = 0 to t.m - 1 do
        Vec.blit
          ~src:(Mat.row_view t.data i)
          ~dst:(Vec.sub_view (Mat.row_view data i) ~pos:0 ~len:cap_cols)
      done;
      t.data <- data;
      let rhs = Vec.make new_rows 0. in
      Vec.blit ~src:t.rhs ~dst:(Vec.sub_view rhs ~pos:0 ~len:cap_rows);
      t.rhs <- rhs;
      let basis = Array.make new_rows (-1) in
      Array.blit t.basis 0 basis 0 cap_rows;
      t.basis <- basis;
      let obj = Vec.make new_cols 0. in
      Vec.blit ~src:t.obj ~dst:(Vec.sub_view obj ~pos:0 ~len:cap_cols);
      t.obj <- obj
    end

  let copy h =
    let t = h.tab in
    {
      h with
      tab =
        {
          t with
          data = Mat.copy t.data;
          rhs = Vec.copy t.rhs;
          basis = Array.copy t.basis;
          obj = Vec.copy t.obj;
          obj_value = Array.copy t.obj_value;
        };
    }

  (* Same static parameters and the same capacity grid: [into] can take
     [h]'s state by blits alone. *)
  let same_shape h into =
    let t = h.tab and u = into.tab in
    t.n = u.n && t.art_start = u.art_start
    && t.art_end = u.art_end && Float.equal t.tol u.tol && t.live = u.live
    && h.max_pivots = into.max_pivots
    && Mat.rows t.data = Mat.rows u.data
    && Mat.cols t.data = Mat.cols u.data

  let fork ?into h =
    match into with
    | Some s when s != h && same_shape h s ->
      let t = h.tab and u = s.tab in
      A.blit (Mat.buffer t.data) (Mat.buffer u.data);
      Vec.blit ~src:t.rhs ~dst:u.rhs;
      Array.blit t.basis 0 u.basis 0 (Array.length t.basis);
      Vec.blit ~src:t.obj ~dst:u.obj;
      u.obj_value.(0) <- t.obj_value.(0);
      u.m <- t.m;
      u.ncols <- t.ncols;
      u.iters <- t.iters;
      s.ok <- h.ok;
      s
    | _ -> copy h

  let create ?(tol = 1e-9) ?max_pivots ~n constraints =
    check_inputs ~n (Vec.make n 0.) constraints;
    if constraints = [] then
      invalid_arg "Lp.Live.create: need at least one constraint";
    let m = List.length constraints in
    let budget =
      match max_pivots with
      | Some b -> max 0 b
      | None -> default_budget ~n ~m
    in
    (* Phase 1 to a feasible basis; Bland retry on a Dantzig cycle, like
       the cold path.  Reserve headroom for the cuts a live handle exists
       to absorb. *)
    let attempt rule =
      let t = build ~tol ~n ~reserve:8 ~live:true constraints in
      match solve_phase t ~rule ~phase2:false ~fuel:(ref budget) with
      | `Budget -> `Budget
      | `Unbounded -> `Done `Infeasible
      | `Optimal ->
        if -.t.obj_value.(0) > 1e-7 then `Done `Infeasible
        else begin
          expel_artificials t;
          install_objective t `Minimize (Vec.make n 0.);
          `Done (`Feasible { tab = t; max_pivots; ok = true })
        end
    in
    match attempt `Dantzig with
    | `Done r -> r
    | exception Bad_pivot detail -> `Failed (Numerical { detail })
    | `Budget -> (
      Counter.incr c_retry_attempts;
      match attempt `Bland with
      | `Done r -> r
      | exception Bad_pivot detail -> `Failed (Numerical { detail })
      | `Budget ->
        Counter.incr c_retry_exhausted;
        `Failed (Iteration_limit { budget }))

  (* Append one row in <= form with a fresh basic slack, re-expressed in
     the current basis: coefficients [coeffs] and right-hand side [rhs],
     or, with [~negate], [-.coeffs] and [-.rhs] (the coordinates of
     [Vec.neg coeffs], without allocating it).  Returns the new row's
     index. *)
  let append_le_row t ~negate coeffs rhs =
    (ensure_capacity t ~rows:(t.m + 1) ~cols:(t.ncols + 1)
    [@indq.alloc_ok
      "amortized growth: the grid doubles, so a replay of k cuts \
       reallocates O(log k) times"]);
    let row_idx = t.m and slack_col = t.ncols in
    let cells = Mat.buffer t.data and w = Mat.cols t.data in
    let base = row_idx * w in
    let c = Vec.buffer coeffs and rhs_cells = Vec.buffer t.rhs in
    for j = 0 to w - 1 do
      A.set cells (base + j) 0.
    done;
    for j = 0 to t.n - 1 do
      A.set cells (base + j) (if negate then -.A.get c j else A.get c j)
    done;
    A.set cells (base + slack_col) 1.;
    A.set rhs_cells row_idx (if negate then -.rhs else rhs);
    t.basis.(row_idx) <- slack_col;
    t.m <- t.m + 1;
    t.ncols <- t.ncols + 1;
    (* Eliminate the current basic columns from the fresh row so the
       tableau stays in canonical form; the slack picks up the row's
       infeasibility (its value becomes rhs - coeffs . x̄). *)
    for i = 0 to t.m - 2 do
      let b = t.basis.(i) in
      let f = A.get cells (base + b) in
      if Float.abs f > 0. then begin
        Mat.row_axpy_ip t.data ~col:b ~src:i ~dst:row_idx;
        A.set rhs_cells row_idx
          (A.get rhs_cells row_idx -. (f *. A.get rhs_cells i))
      end
    done;
    row_idx
  [@@indq.alloc_free
    "cut absorption over the flat buffers: one fill, one copy-in and one \
     Mat row kernel per eliminated basic column"]

  (* Dual simplex: while some row is primal infeasible ([leaving_row]),
     pivot it out on the column minimizing |reduced cost / element| over
     negative elements ([dual_entering]) —
     reduced costs stay non-negative (dual feasible), the basis walks back
     to primal feasibility.  A row with no negative element certifies
     infeasibility.  Deterministic tie-breaks: most negative rhs then
     lowest row index; lowest column index on ratio ties. *)
  let leaving_row t =
    let rhs = Vec.buffer t.rhs in
    let row = ref (-1) in
    let worst = ref (-.t.tol) in
    for i = 0 to t.m - 1 do
      if A.get rhs i < !worst then begin
        row := i;
        worst := A.get rhs i
      end
    done;
    !row
  [@@indq.alloc_free "most-negative scan over the flat rhs"]

  let dual_entering t row =
    let cells = Mat.buffer t.data and obj = Vec.buffer t.obj in
    let base = row * Mat.cols t.data in
    let col = ref (-1) in
    let best_ratio = ref infinity in
    for j = 0 to t.ncols - 1 do
      if col_allowed t j then begin
        let a = A.get cells (base + j) in
        if a < -.t.tol then begin
          let ratio = A.get obj j /. -.a in
          if ratio < !best_ratio -. t.tol then begin
            col := j;
            best_ratio := ratio
          end
        end
      end
    done;
    !col
  [@@indq.alloc_free "dual ratio test over one flat tableau row"]

  let dual_restore t ~fuel =
    let rec iterate pivots =
      let row = leaving_row t in
      if row < 0 then `Feasible pivots
      else if !fuel <= 0 then `Budget
      else begin
        let col = dual_entering t row in
        if col < 0 then `Infeasible
        else begin
          decr fuel;
          pivot t ~row ~col;
          iterate (pivots + 1)
        end
      end
    in
    iterate 0

  let add_cut h (c : constr) =
    if not h.ok then `Failed (Numerical { detail = "unusable live tableau" })
    else if Vec.dim c.coeffs <> h.tab.n then
      invalid_arg "Lp.Live.add_cut: constraint coefficient length <> n"
    else begin
      Counter.incr c_dual_reopt;
      let pivots_before = Counter.value c_dual_pivots in
      let t = h.tab in
      (* Express the cut in <= form; an equality contributes both sides. *)
      (match c.relation with
      | Le -> ignore (append_le_row t ~negate:false c.coeffs c.rhs)
      | Ge -> ignore (append_le_row t ~negate:true c.coeffs c.rhs)
      | Eq ->
        ignore (append_le_row t ~negate:false c.coeffs c.rhs);
        ignore (append_le_row t ~negate:true c.coeffs c.rhs));
      let fuel = ref (budget h) in
      let result =
        match dual_restore t ~fuel with
        | `Feasible 0 -> `Sat
        | `Feasible k -> `Reopt k
        | `Infeasible ->
          (* Exact verdict: a primal-infeasible row with no negative
             entry proves the extended system empty.  The tableau is
             abandoned mid-restore. *)
          h.ok <- false;
          `Infeasible
        | `Budget ->
          h.ok <- false;
          `Failed (Iteration_limit { budget = budget h })
        | exception Bad_pivot detail ->
          h.ok <- false;
          `Failed (Numerical { detail })
      in
      Histogram.observe h_pivots_per_reopt
        (Counter.value c_dual_pivots -. pivots_before);
      result
    end

  let optimize h ~objective direction =
    if not h.ok then Failed (Numerical { detail = "unusable live tableau" })
    else if Vec.dim objective <> h.tab.n then
      invalid_arg "Lp.Live.optimize: objective length <> n"
    else begin
      Counter.incr c_dual_reopt;
      let pivots_before = Counter.value c_dual_pivots in
      let t = h.tab in
      let result =
        match
          install_objective t direction objective;
          solve_phase t ~rule:`Dantzig ~phase2:true
            ~fuel:(ref (budget h))
        with
        | `Optimal -> (
          match final_solution t with
          | Ok s -> finish direction (Optimal s)
          | Error detail ->
            h.ok <- false;
            Counter.incr c_failures;
            Failed (Numerical { detail }))
        | `Unbounded ->
          h.ok <- false;
          finish direction Unbounded
        | `Budget ->
          h.ok <- false;
          Counter.incr c_failures;
          Failed (Iteration_limit { budget = budget h })
        | exception Bad_pivot detail ->
          h.ok <- false;
          Counter.incr c_failures;
          Failed (Numerical { detail })
      in
      Histogram.observe h_pivots_per_reopt
        (Counter.value c_dual_pivots -. pivots_before);
      result
    end
end
