(** Post-legalization detailed placement (wirelength refinement).

    The paper's flow ends at legalization; its successor work (MrDP, Lin
    et al., ICCAD'16 — cited as [12]) refines the legal placement for
    wirelength. This module runs two local moves on top of any legal
    placement, each preserving legality by construction:

    - {b global move}: relocate one cell to the free spot nearest the
      centre of its optimal region (the median box of its connected
      nets), at most 5 rows away;
    - {b reorder}: try every order of each window of three consecutive
      single-height cells of a row and repack it from the window's left
      edge.

    Each sweep runs the global moves over all cells in a fixed shuffled
    order, then the reorders row by row; at most 3 sweeps run, and a sweep
    that accepts nothing ends the run. Moves are accepted only when they
    strictly reduce HPWL, so the refined placement is never worse. *)

open Mclh_circuit

type stats = {
  hpwl_before : float;
  hpwl_after : float;
  moves : int;  (** accepted global moves *)
  reorders : int;  (** accepted window reorders *)
  passes_run : int;
  skipped_cells : int;
      (** cells that were illegal in the input, frozen in place and
          excluded from every move *)
}

val improvement : stats -> float
(** Relative HPWL reduction, in [0, 1). *)

val run : ?obs:Mclh_obs.Obs.t -> Design.t -> Placement.t -> Placement.t * stats
(** [run design placement] refines a placement. A not-perfectly-legal
    input no longer aborts: the illegal cells are frozen in place (their
    clamped spans become obstacles), excluded from every move, counted in
    [stats.skipped_cells] and under the [refine/skipped_illegal] obs
    counter, and every other cell is still refined. Never raises on any
    placement whose coordinates are finite. *)
