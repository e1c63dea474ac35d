(** Parameters of the legalization flow.

    Defaults follow the experimental setup of Section 5: [lambda = 1000],
    [beta = theta = 0.5].

    This record is the {b single source} for solver tolerances and
    budgets: every MMSIM run {!Solver.solve} makes (the accelerated
    attempt and its theta/2 retry) receives its stopping tolerance and
    iteration budget from here — the module-local default of
    {!Mclh_lcp.Mmsim.default_options} ([eps = 1e-9]) is for direct
    library use and tests only, so both attempts of a shard stop on the
    same test. The one MMSIM option not set here is the modulus
    scaling [gamma], which leaves the fixed point unchanged and is the
    fixed {!Warm_start.gamma}. *)

type t = {
  lambda : float;  (** equality-penalty factor of Problem (13) *)
  beta : float;
      (** splitting constant of Eq. (16), in (0, 2): Algorithm 1's
          splitting, used by the solver's theta/2 retry, by the
          accelerated attempt below [eps = 1e-10], and by
          {!Solver.check_bound}. Otherwise the accelerated attempt runs
          its own splitting (see {!Solver.solve}). *)
  theta : float;  (** splitting constant of Eq. (16); positive *)
  eps : float;  (** MMSIM stopping tolerance on iterate change *)
  max_iter : int;
  num_domains : int;
      (** parallelism degree for the multicore layers ({!Fence}
          territories, the model build, the solver's shard fan-out); [1]
          bypasses the domain pool entirely. Valid values lie in
          [1..Mclh_par.Pool.max_domains]. Defaults to
          {!Mclh_par.Pool.default_num_domains}, i.e. the [MCLH_DOMAINS]
          environment override when set, unchecked until {!validate}.
          Parallel and sequential runs produce bit-identical
          placements. *)
  progress : bool;
      (** print stage/iteration heartbeat lines to stderr during the flow
          (model build, shard fan-out, MMSIM iterations) — for watching
          long full-scale runs. Off by default; never appears in reports
          or stdout and never affects results. *)
}

val default : t

val validate : t -> (t, string) result
(** Checks the parameter ranges ([0 < beta < 2], positivity,
    [1 <= num_domains <= Mclh_par.Pool.max_domains], ...); a nan or
    infinite float is rejected. *)
