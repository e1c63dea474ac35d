(** Density-driven analytical global placement.

    The placer alternates a conjugate-gradient solve of the quadratic
    wirelength model [(L + diag alpha) x = b + alpha a] (clique
    Laplacian [L] with edge weight [1/(k-1)], pin offsets in [b]) with a
    density step in the FFTPL style (Lu et al.): the current fractional
    placement is binned on the {!Density} grid, the Poisson potential of
    the density map is solved spectrally, and each movable cell's anchor
    [a] becomes its current position pushed one field step
    [mu E(center)] toward sparser bins, with [mu] normalized so the
    strongest-pushed cell's anchor moves one bin pitch. The anchor pull
    [alpha] starts at 0.01 and grows by 1.6 per round, so early rounds are
    wirelength-dominated and late rounds density-dominated; each axis
    solve stops at CG tolerance 1e-7. The loop stops when the density
    overflow drops to [stop_overflow] (or after [iterations] rounds).

    Blockages and pinned cells ([fixed_cells]) are pre-filled into the
    density grid, so the field steers spreading around obstructed
    regions; pinned cells are additionally held at their [design.global]
    position by a large per-cell anchor weight in the CG system.

    The output is a {e global} placement: overlapping, fractional,
    density-equalized — the honest input the paper's legalization flow
    expects (hundreds of illegal cells, not the feasible-by-construction
    synthetics). *)

open Mclh_circuit

type options = {
  iterations : int;
      (** max rounds (default 24); the density stopping rule usually
          exits earlier *)
  grid : int option;
      (** density bins per side (power of two); default: chosen from the
          cell count by {!Density.create} *)
  target_density : float;  (** per-bin target utilization (default 1.0) *)
  stop_overflow : float;
      (** stop once {!Density.overflow} falls to this fraction of the
          movable area (default 0.10) *)
  fixed_cells : int list;
      (** cells pinned at their [design.global] position: immovable
          density, huge anchor weight *)
}

val default_options : options

type round = {
  index : int;  (** 1-based *)
  alpha : float;
  hpwl : float;
  overflow : float;  (** {!Density.overflow} after this round's solve *)
  max_utilization : float;
  cg_iterations : int;  (** both axes *)
  density_seconds : float;  (** accumulate + Poisson solve + field *)
}

type stats = {
  rounds : round list;  (** chronological; [<= iterations] entries *)
  final_hpwl : float;
  final_overflow : float;
  grid : int;  (** density bins per side actually used *)
}

val place :
  ?options:options ->
  ?obs:Mclh_obs.Obs.t ->
  ?on_round:(round -> Placement.t -> unit) ->
  Design.t ->
  Placement.t * stats
(** [place design] produces a fresh global placement from the netlist
    ([design.global] is read only for [fixed_cells]). [on_round] fires
    after every round with the round record and the {e live} position
    buffer (copy it to keep it — the ECO bridge does). [obs] records
    [gp/*] counters, gauges and spans.

    Cells not touched by any net settle at their anchors. The result is
    clamped to the chip but not legal.

    @raise Invalid_argument if [iterations < 1] or a [fixed_cells] id is
      out of range. *)
