(** The problem-specific MMSIM solver (Section 3.2, Algorithm 1).

    Instantiates the generic {!Mclh_lcp.Mmsim} over the legalization KKT
    system with the splitting of Equation (16):

    M = [ (1/beta) Q~   0          ]     N = [ (1/beta - 1) Q~   B^T       ]
        [ B             (1/theta) D ]        [ 0                 (1/theta) D ]

    with [Q~ = I + lambda E^T E] and [D = tridiag(B Q~^-1 B^T)]. With
    [Omega = I], [M + Omega] is block lower triangular, so one iteration
    costs O(n + m): an arrowhead solve per cell chain for the top block and
    one Thomas solve for the bottom block. The Anderson step of the
    accelerated backend adds O(depth (n + m)) to that. *)

open Mclh_linalg

type backend_stats = {
  fallbacks : int;
      (** abandoned attempts across all shards: each shard whose
          accelerated attempt fails counts one, for its theta/2 retry.
          [0] means every shard converged on its first attempt. *)
}

type result = {
  x : Vec.t;  (** subcell positions (length [Model.nvars]) *)
  r : Vec.t;  (** ordering-constraint multipliers (length m) *)
  modulus : Vec.t;
      (** the final MMSIM modulus vector [s] in global numbering (length
          [n + m]: variables first, then constraints). Feeding it back as
          [?s0] warm-restarts a later solve of the same (or a slightly
          perturbed) model — the incremental engine ({!Mclh_incr}) relies
          on this. Per-shard final [s] slices are scattered back just
          like [x] and [r]. *)
  iterations : int;  (** max over shards *)
  iterations_total : int;
      (** sum of iterations over all shards (equals [iterations] for a
          one-shard solve); the honest total-work count that incremental
          re-legalization reports savings against *)
  converged : bool;
  delta_inf : float;  (** final iterate change *)
  mismatch : float;  (** subcell mismatch after the solve *)
  components : int;
      (** independent LCP components found by {!Decompose.analyze} *)
  largest_dim : int;
      (** variables + constraints of the largest component *)
  backends : backend_stats;
      (** how many shards needed their theta/2 retry (see
          {!backend_stats}) *)
}

type bound_check = {
  mu_max : float;  (** power-iteration estimate of the largest eigenvalue
                       of [Gamma = D^-1 B Q~^-1 B^T] *)
  theta_limit : float;  (** [2 (2 - beta) / (beta mu_max)] *)
  theta_ok : bool;  (** Theorem 2's sufficient condition satisfied *)
}

val operators : Model.t -> Config.t -> Mclh_lcp.Mmsim.operators
(** The MMSIM operators of the splitting (16) at [config.lambda],
    [config.beta] and [config.theta]; {!solve} runs
    {!Mclh_lcp.Mmsim.solve} over them. Every intermediate lives in
    scratch allocated once per call, so an iteration allocates nothing
    and one operator set serves one solve at a time. The operators run
    on the calling domain, whatever [config.num_domains] says. Exposed for tests and the ablation bench,
    which drive the generic solver directly. *)

val rhs_q : Model.t -> Vec.t
(** The LCP right-hand side [q = (p; -b)]. *)

val solve :
  ?config:Config.t -> ?obs:Mclh_obs.Obs.t -> ?s0:Vec.t -> Model.t -> result
(** Solves the x-direction LCP. The LCP is first split into its
    independent connected components ({!Decompose.analyze}); every shard
    then goes through {!solve_shards}: sub-LCPs solve on the domain pool
    and their solutions scatter back. A single-component design is one
    shard whose sub-model is the model itself. Each component converges
    on its own schedule, so the result agrees with Algorithm 1 on the
    whole LCP up to the iteration tolerance; it is bit-identical across
    [num_domains] values.

    Every shard starts from the PlaceRow warm start
    ({!Warm_start.modulus_vector}) unless [s0] is given, and runs
    Anderson-accelerated MMSIM. When [config.eps >= 1e-10] the
    accelerated attempt iterates at its own splitting (beta = 1.0,
    theta = 0.4), which leaves the fixed point unchanged; below that it
    keeps [config.beta]/[config.theta]. A shard where
    {!Warm_start.exact} holds (no multi-row chains, as on every
    single-height design) starts from the PlaceRow fixed point whatever
    [s0] says, so it converges in one iteration, certified by the
    MMSIM's own stopping test. A shard whose accelerated run does not
    converge gets one accelerated retry from the same start at
    [config.beta] and [config.theta /. 2] (Theorem 2's lever: a small
    enough theta contracts). Iterations add up across the two attempts
    and every abandoned attempt counts in [result.backends.fallbacks],
    so reported work and fallback behaviour are never hidden. The retry
    depends only on shard content and config — never on timing, pool
    size, or whether [obs] is attached — preserving bit-identical
    parallel results. No path of the solve runs plain Algorithm 1.

    [s0] is an explicit MMSIM start vector in global numbering (length
    [n + m]); it replaces the PlaceRow warm start (except on the exact
    shards just described), e.g. {!Warm_start.plain_start} for the
    paper's start. Each shard receives its own restriction of [s0]
    ({!Decompose.restrict}). The LCP fixed point is unique (Q~ SPD, B full
    row rank), so any [s0] converges to the same solution within the
    tolerance; a good [s0] — e.g. [result.modulus] from a previous solve
    of a nearby model — just gets there in fewer iterations.
    @raise Invalid_argument when [s0] has the wrong dimension.

    [obs] records [solver/iterations], [solver/iterations_total],
    [solver/components], [solver/largest_dim] and [solver/nonconverged]
    counters, the [solver/fallbacks] count, the
    [solver/delta_inf] / [solver/mismatch] gauges, and per-iteration
    convergence traces: [solver/delta_inf] when the solve has one shard,
    [solver/compNNN/{delta_inf,iterations,dim}] per shard otherwise. Traces are ring buffers keeping the last 512 iterations;
    pool jobs record into job-local traces attached after fan-in, so
    instrumentation never perturbs the bit-identical parallel results. *)

type fan_in = {
  max_iterations : int;
  total_iterations : int;
  all_converged : bool;
  max_delta : float;  (** nan when any shard's divergence guard fired *)
  fallbacks : int;  (** shards that needed their theta/2 retry *)
}
(** The per-shard outcomes of {!solve_shards}, folded in shard order. *)

val trace_capacity : int
(** Samples a convergence trace keeps (the tail of the iteration
    history). *)

val solve_shards :
  ?on_trace:(int -> iterations:int -> Mclh_obs.Trace.t -> unit) ->
  ?s0:Vec.t ->
  Config.t ->
  Model.t ->
  Decompose.shard array ->
  x:Vec.t ->
  r:Vec.t ->
  modulus:Vec.t ->
  fan_in
(** [solve_shards config model shards ~x ~r ~modulus] solves each shard's
    sub-LCP and scatters its positions, multipliers and final modulus
    into the global [x] (length [n]), [r] (length [m]) and [modulus]
    (length [n + m]); entries outside [shards] are left as they are. It
    is the one per-shard path of the solver: {!solve} hands it every
    shard, the incremental engine only its cache misses. [shards] must be
    disjoint shards of [model] (from {!Decompose.analyze}) and [config]
    valid.

    Each shard starts from its restriction of [s0] (global numbering,
    length [n + m]) when given, otherwise from the PlaceRow warm start,
    and is solved as described under {!solve}. Several
    shards fan out over the domain pool, heaviest first; a lone shard
    runs on the calling thread. When [on_trace] is given, every shard
    records a convergence trace, handed over as [on_trace i ~iterations
    trace] on the calling thread after fan-in, in shard order. *)

val check_bound : Model.t -> Config.t -> bound_check
(** Theorem 2's sufficient convergence condition for Algorithm 1 at
    [config.beta]/[config.theta] on [model] (one power iteration). *)

val lcp_problem : Model.t -> lambda:float -> Mclh_lcp.Lcp.problem
(** The explicit KKT LCP (Equation (15)) via {!Model.to_qp} — small
    instances / validation only. *)
