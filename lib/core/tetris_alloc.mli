(** Tetris-like allocation (final stage of Figure 4).

    Aligns every cell to the nearest placement site, accepts cells in
    left-to-right order ({!acceptance_order}) while they stay
    conflict-free, and relocates each
    remaining illegal cell — overlap from finite-precision subcell
    mismatch, or out-of-right-boundary after the relaxation — to the
    nearest free span over rail-compatible rows. Table 1's "#I. Cell"
    column is [illegal_before] of this stage. *)

open Mclh_circuit

type result = {
  placement : Placement.t;  (** legal placement *)
  illegal_before : int;  (** cells the scan marked illegal *)
  relocated : int;  (** cells actually moved to a new free span *)
  relocation_cost : float;  (** total Manhattan distance of relocations,
                                relative to the input positions *)
  repack_fallback : bool;
      (** the first repair pass fragmented the free space and the whole
          allocation was redone tallest/largest-first *)
  exact_repacks : int;
      (** windows handed to the exact evict-and-repack rescue
          ({!Mclh_audit.Exact}) after even the area-ordered repack
          stranded a cell *)
  unplaced : int list;
      (** cells no strategy could place — empty on any feasible design.
          They sit at their clamped snapped positions in [placement]
          (overlapping whatever is there), so the caller can still
          measure and report; the flow surfaces them as a typed failure
          instead of an exception *)
}

val clamp_x0 : num_sites:int -> Cell.t -> int -> int
(** Clamp a relocation-search start column into [[0, num_sites - width]]
    (the single clamp both repair passes share). *)

val snap_site : float -> int
(** The site a relaxed x snaps to: the nearest one, [0] for any x left of
    the chip, and [max_int] (past every site, so the cell does not fit
    and is relocated) for NaN and for an x that rounds to [2^62] or more,
    +inf included. *)

val acceptance_order :
  num_sites:int -> sx:int array -> gx:float array -> int array
(** The order of the acceptance scan: cell ids ascending by snapped site
    [sx.(i)], then by global x [gx.(i)] ([Float.compare]), then by id.
    A counting sort files each cell under its site, cells at or past the
    right edge ([sx.(i) >= num_sites]) in one last bucket, and each
    bucket is sorted on the full key: O(n + num_sites) when the buckets
    hold a few dozen cells, as MMSIM output leaves them; the last bucket
    and one of more than 128 cells cost O(k log k). Raises
    [Invalid_argument] when [sx] and [gx] differ in length or a site is
    negative. *)

val run : ?obs:Mclh_obs.Obs.t -> Design.t -> Placement.t -> result
(** Input: a placement whose ys are integral rows admitting each cell
    (as produced by {!Model.placement_of}); xs may be fractional, off the
    chip to the right, or overlapping. [obs] records the
    [tetris/illegal_before], [tetris/relocated], [tetris/repack_fallback],
    [tetris/exact_repacks] and [tetris/unplaced] counters and the
    [tetris/relocation_cost] gauge. Never raises: a cell that cannot be
    placed anywhere (design exceeds chip capacity) is first offered to
    the exact evict-and-repack rescue and, failing that, listed in
    [unplaced]. *)
