(** Bin-based density and utilization analysis.

    Detailed placers and congestion-aware flows (e.g. the MrDP follow-up
    the paper cites) reason about local density: the chip is divided into
    rectangular bins and each bin's utilization is the fraction of its
    free area covered by cells. This module computes the density map, its
    overflow statistics, and per-row utilization. *)

type map = private {
  bins_x : int;
  bins_y : int;
  bin_w : float;  (** bin width in sites *)
  bin_h : float;  (** bin height in rows *)
  utilization : float array;  (** row-major [bins_x * bins_y], in [0, inf) *)
  cell_area : float array;  (** cell area per bin, row-major *)
  blocked_area : float array;  (** blockage area per bin, row-major *)
}

val map : ?bins_x:int -> ?bins_y:int -> Design.t -> Placement.t -> map
(** Cell area is distributed over the bins each cell overlaps,
    proportionally to the overlap; blockage area reduces a bin's free
    capacity (a fully blocked bin counts as utilization 0). Default grid:
    roughly one bin per 16x4 site-rows, at least 1x1. *)

val get : map -> int -> int -> float
(** [get m ix iy]. *)

val area_overflow :
  target:float ->
  bin_area:float ->
  cell_area:float array ->
  blocked_area:float array ->
  total:float ->
  float
(** The one definition of density overflow: the cell area above each
    bin's capacity [max 0 (target * bin_area - blocked_area.(k))],
    summed in bin order and divided by [total] (the cell area being
    spread); 0 when [total <= 0]. Both {!overflow} and the global
    placer's stopping rule use it, each over its own bin grid. *)

type overflow = {
  max_utilization : float;
  mean_utilization : float;
  overflow_ratio : float;
      (** {!area_overflow} at target [limit], over the cell area inside
          the chip *)
  overflowed_bins : int;  (** bins whose cell area exceeds their capacity *)
}

val overflow : ?limit:float -> map -> overflow
(** Overflow statistics at a target density [limit] (default 1.0). *)

val row_utilization : Design.t -> Placement.t -> float array
(** Per-row fraction of free sites covered by cells (blockage sites
    excluded from the denominator); rows fully blocked report 0. *)

val to_svg : ?pixels_per_bin:float -> map -> string
(** A heatmap of the utilization map: white (empty) through blue to red
    (at or above 100%), bins over the limit outlined. Row 0 at the
    bottom, as in layout plots. *)

val pp_histogram : Format.formatter -> map -> unit
(** A coarse text histogram of bin utilizations (ten 10%-wide buckets plus
    an overflow bucket). *)
