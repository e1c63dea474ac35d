(** Parameters of the legalization flow.

    Defaults follow the experimental setup of Section 5: [lambda = 1000],
    [beta = theta = 0.5].

    This record is the {b single source} for solver tolerances and
    budgets: every MMSIM run the per-shard chooser makes (plain or
    accelerated) receives its stopping tolerance and iteration budget
    from here — the module-local defaults of
    {!Mclh_lcp.Mmsim.default_options} ([eps = 1e-9]) and
    {!Mclh_lcp.Pgs.default_options} ([eps = 1e-10]) are for direct
    library use and tests only, so the chooser always compares attempts
    like with like. The one MMSIM option not set here is the modulus
    scaling [gamma], which leaves the fixed point unchanged and is the
    fixed {!Warm_start.gamma}. *)

type backend =
  | Auto
      (** per-shard chooser: every shard runs Anderson-accelerated MMSIM,
          and a failed accelerated solve falls back to plain MMSIM (see
          {!Solver.solve}); a shard where {!Warm_start.exact} holds
          starts from the PlaceRow fixed point *)
  | Plain  (** plain MMSIM everywhere: the paper's Algorithm 1 exactly *)

type t = {
  lambda : float;  (** equality-penalty factor of Problem (13) *)
  beta : float;  (** splitting constant of Eq. (16); in (0, 2) *)
  theta : float;  (** splitting constant of Eq. (16); positive *)
  eps : float;  (** MMSIM stopping tolerance on iterate change *)
  max_iter : int;
  backend : backend;  (** per-shard solver selection policy *)
  verify_bound : bool;
      (** estimate mu_max and record whether Theorem 2's bound on theta
          holds (costs one power iteration) *)
  warm_start : bool;
      (** start Algorithm 1 from the {!Warm_start} modulus vector instead
          of the plain global-placement start; identical fixed point, far
          fewer iterations (see the ablation bench). Under [Auto] a shard
          where {!Warm_start.exact} holds starts from it either way. *)
  num_domains : int;
      (** parallelism degree for the multicore layers ({!Fence}
          territories, the solver's per-chain top-block solves); [1]
          bypasses the domain pool entirely. Defaults to
          {!Mclh_par.Pool.default_num_domains}, i.e. the [MCLH_DOMAINS]
          environment override when set. Parallel and sequential runs
          produce bit-identical placements. *)
  decompose : bool;
      (** split the x-direction LCP into its independent connected
          components ({!Decompose}) and solve them as separate sub-LCPs,
          fanned out over the domain pool. Off, the LCP is solved as one
          shard covering the whole model. The placement agrees with the
          one-shard solve up to the iteration tolerance (each component
          converges on its own schedule instead of the global one); a
          single-component design is one shard either way and solves
          exactly the same. Results are bit-identical across
          [num_domains] values either way. *)
  metrics : bool;
      (** collect the {!Mclh_obs} run metrics (stage spans, convergence
          traces, repair counters) and expose them as a JSON run report
          ({!Runner.report}, [mclh ... --metrics-out]). Defaults to the
          [MCLH_METRICS] environment gate; when off, the instrumentation
          reduces to single branches and the solver's zero-allocation
          steady state is preserved. Never affects results — only what is
          recorded about them. *)
  progress : bool;
      (** print stage/iteration heartbeat lines to stderr during the flow
          (model build, shard fan-out, MMSIM iterations) — for watching
          long full-scale runs. Off by default; never appears in reports
          or stdout and never affects results. *)
}

val default : t

val validate : t -> (t, string) result
(** Checks the parameter ranges ([0 < beta < 2], positivity, ...); a
    nan or infinite float is rejected. *)
