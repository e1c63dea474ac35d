(** Uniform driver over every legalizer in the repository.

    Each algorithm consumes a {!Mclh_circuit.Design.t} and produces a legal
    placement (fractional outputs are snapped and repaired by
    {!Tetris_alloc}, the same final stage the paper's flow uses), together
    with the metrics the benchmark tables report. *)

open Mclh_circuit

type algorithm =
  | Mmsim  (** the paper's flow ("Ours") *)
  | Greedy_dac16  (** windowed greedy — "DAC'16" *)
  | Greedy_dac16_improved  (** global greedy — "DAC'16-Imp" *)
  | Abacus_multirow  (** multi-row Abacus — "ASP-DAC'17" *)
  | Tetris  (** classic Tetris (extra baseline) *)

val all : algorithm list
val name : algorithm -> string
val of_name : string -> algorithm option

type report = {
  algorithm : algorithm;
  placement : Placement.t;
  legal : bool;
  displacement : Metrics.t;
  delta_hpwl : float;
  runtime_s : float;
  unplaced : int list;
      (** cells no stage could place legally (empty on feasible designs):
          a baseline's typed {!Unplaced.t} failure, the flow's
          [Tetris_alloc] leftovers, or a fenced run's aggregated
          {!Fence.total_unplaced}. The placement still contains them at
          clamped positions, and [legal] is necessarily [false] *)
  mmsim : Flow.result option;
      (** present for {!Mmsim} on designs without fence regions (fenced
          designs run the {!Fence} decomposition instead) *)
  fence : Fence.stats option;
      (** present for {!Mmsim} on fenced designs: the per-territory solver
          stats ({!Fence.territory_stats}), ready to aggregate with the
          {!Fence} helpers *)
  obs : Mclh_obs.Obs.t option;
      (** the run's metrics recorder, present when [config.metrics] is set
          (default: the [MCLH_METRICS] gate) — serialize it with
          {!Mclh_obs.Run_report} *)
}

val run :
  ?config:Config.t -> ?obs:Mclh_obs.Obs.t -> algorithm -> Design.t -> report
(** [obs] shares a caller-owned metrics recorder with the run (the eco
    session uses one recorder across the initial legalization and every
    later batch); when omitted, a fresh recorder is created iff
    [config.metrics] is set. *)

val converged : report -> bool option
(** Whether every solver invocation behind this report converged:
    the MMSIM result's flag on plain designs, {!Fence.all_converged}
    over the per-territory stats on fenced ones. [None] for the
    non-iterative baseline algorithms, which have no notion of
    convergence. The CLI's [--strict-convergence] gate keys on this. *)
