(** Modulus-based matrix splitting iteration method (MMSIM, Bai 2010).

    For LCP(q, A) with splitting [A = M - N], iterate Equation (3) of the
    paper at [Omega = I]:

    [(M + I) s_{k+1} = N s_k + (I - A) |s_k| - gamma q]

    and recover [z_{k+1} = (|s_{k+1}| + s_{k+1}) / gamma] (Equation (4)).
    At a fixed point, [z] solves the LCP with [w = (|s| - s) / gamma].
    The fixed point's [z] depends on neither [Omega] nor [gamma], so both
    are fixed: [Omega = I] and [gamma = 2], which makes [z = max(s, 0)].

    The solver is expressed over abstract operators so that structured
    problems (like the legalization KKT system, where [M + I] is block
    lower triangular with an arrowhead top block and a tridiagonal bottom
    block) never materialize their matrices. The operators write into
    caller-provided destinations, so the iteration allocates nothing. *)

open Mclh_linalg

type operators = {
  dim : int;
  apply_a_into : Vec.t -> Vec.t -> unit;
      (** [apply_a_into v dst] writes [A v] into [dst]; [dst] must not be
          [v], which an operator may read after writing [dst] *)
  apply_n_into : Vec.t -> Vec.t -> unit;
      (** [apply_n_into v dst] writes [N v] into [dst]; [dst] must not be
          [v] *)
  solve_m_omega_into : Vec.t -> Vec.t -> unit;
      (** [solve_m_omega_into rhs dst] solves [(M + I) dst = rhs];
          [rhs] may be clobbered *)
  chunks : int;
      (** how many fixed ranges of [0, dim) the loop's own vector passes
          are cut into (at least 1) *)
  region : int -> (int -> unit) -> unit;
      (** [region k f] runs [f 0], ..., [f (k - 1)], each once, and
          returns when all have finished; the tasks of one region write
          disjoint entries, so they may run concurrently
          ([Mclh_par.Pool.region]) or in order ({!sequential}). It must
          not allocate, for the loop's steady state to stay
          allocation-free. *)
}

val sequential : int -> (int -> unit) -> unit
(** [sequential k f] runs [f 0 .. f (k - 1)] in order on the caller: the
    [region] of operators that run on one domain. *)

val gamma : float
(** The modulus scaling, [2.0]: [z = (|s| + s) / gamma = max(s, 0)]. A
    start vector built for {!solve} encodes [z] and [w] at this scaling. *)

type options = {
  eps : float;
      (** stop when both [||z_k - z_{k-1}||_inf < eps] and the modulus
          vector is stationary, [||G(s_k) - s_k||_inf < eps * max(1,
          ||G(s_k)||_inf)]. The paper's Algorithm 1 tests only the z
          change, which can fire spuriously while [z] sits at a bound
          (e.g. [z = 0] for an iteration although [s] is still moving);
          the extra s-test restores soundness without changing the fixed
          point. *)
  max_iter : int;
  accel : int;
      (** Anderson (type II) acceleration depth on the modulus fixed
          point [s <- G(s)]; [0] (the default) is the paper's plain
          iteration. With depth [d], the last [d] residual differences
          steer an extrapolated iterate via a ridge-regularized [d x d]
          least-squares solve per iteration — typically cutting iteration
          counts by 5-20x on slowly-contracting instances. The stopping
          test always judges the {e plain} step taken from the
          accelerated point, so "converged" keeps its plain-MMSIM meaning
          and the fixed point is unchanged; degenerate or wild
          extrapolations fall back to the plain step and reset the
          history. A step costs O(depth n) on top of the plain one: the
          Gram matrix of the residual differences is cached across
          iterations, so each step forms only its new row and the
          right-hand side, and the iterates match a full per-step
          recompute bit for bit (property-pinned against a reference in
          [test/mmsim_ref.ml]). Those dot products and the extrapolation
          each read four history vectors per pass over [n] (at depth 8:
          two passes each, beside the one that rotates the history),
          with the sums kept in local accumulators. Acceleration preserves the
          zero-allocation steady state (history buffers are
          preallocated). *)
}

val default_options : options
(** [eps = 1e-9], [max_iter = 10_000], [accel = 0]. Production call
    sites in [lib/core] take every tolerance and budget from
    {!Mclh_core.Config}, the single source for solver tolerances. *)

type outcome = {
  z : Vec.t;  (** final iterate *)
  s : Vec.t;  (** final modulus variable *)
  iterations : int;
  converged : bool;  (** iterate-difference tolerance reached *)
  delta_inf : float;  (** final [||z_k - z_{k-1}||_inf] *)
}

val solve :
  ?options:options -> ?on_iter:(int -> float -> unit) -> ?s0:Vec.t ->
  operators -> q:Vec.t -> outcome
(** Runs Algorithm 1. [s0] defaults to the zero vector. Because the
    iteration's fixed point is unique for the splittings this repository
    uses (SPD system matrix), [s0] only affects how many iterations
    convergence takes, never which solution is reached — so a caller may
    warm-restart from any previous modulus vector (the incremental ECO
    engine does; property-tested with adversarial starts in
    [test_lcp.ml]). [s0] is copied up front.
    [on_iter k delta] is called after every iteration with the 1-based
    iteration number and the iterate change [||z_k - z_{k-1}||_inf] (NaN
    when the divergence guard fires) — the hook the observability layer
    uses for convergence traces.

    Every pass of the loop over the iterate runs as a [ops.region] of
    tasks. The elementwise ones (|s|, the right-hand side, the z/delta
    scan, the Anderson history update and extrapolation) split [0, n)
    into [ops.chunks] fixed ranges; the stopping test combines one
    maximum and one NaN flag per range, which is exact in any order; the
    Anderson Gram row and right-hand side split across groups of four
    history columns, never across [i], so each entry stays one
    ascending-[i] sum. The iterates are therefore the same bits whatever
    [ops.chunks] is and however the regions run.

    All iteration state lives in buffers allocated once per call. Without
    [on_iter] the steady state allocates zero minor-heap words per
    iteration, including with [accel > 0] (Gc-asserted in tests); the
    [on_iter] check itself is a single branch, so the guarantee survives
    instrumented-but-disabled call sites.
    @raise Invalid_argument on dimension mismatches, an [eps] that is
      not positive and finite (NaN and infinity included), a non-positive
      [max_iter], or a negative [accel]. *)

val w_of_s : operators -> Vec.t -> Vec.t
(** The complementary slack [w = (|s| - s) / gamma] at a modulus iterate
    — exact complementarity with [z] holds by construction.
    @raise Invalid_argument if [s] is not of dimension [ops.dim]. *)

