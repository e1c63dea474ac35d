(** Row segments induced by blockages.

    A blockage splits a row into free segments; ordering constraints only
    couple cells within the same segment, and each cell's x variable is
    shifted by its segment start so the LCP's [z >= 0] bound becomes the
    segment's left wall. Without blockages every row is one segment with
    start 0, and the model reduces exactly to the paper's. *)

open Mclh_circuit

type span = { start : int; stop : int }
(** A free interval [start, stop) of sites. *)

type t

val compute : Design.t -> t
(** Free segments per row (sorted by start), kept in flat arrays. Rows
    fully covered by blockages have no segments. *)

val row_segments : t -> int -> span list

val locate : t -> row:int -> x:float -> width:int -> int
(** The start of the segment of [row] best hosting a cell of [width]
    whose desired left edge is [x]: among segments at least [width]
    wide, the one whose clamped position is nearest to [x]; if none is
    wide enough, the nearest segment regardless of fit (the Tetris stage
    repairs the spill). Ties go to the segment with the smaller start;
    -1 only when the row has no segment at all. One scan over the row's
    span array that allocates nothing. *)

val has_blockages : t -> bool
