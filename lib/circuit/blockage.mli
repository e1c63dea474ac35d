(** Placement blockages (fixed macros / keep-out rectangles).

    The original ISPD-2015 benchmarks carry fence regions and routing
    blockages; the paper's modified suite drops them, but a production
    legalizer must handle fixed obstacles. A blockage occupies a rectangle
    of sites that no cell may overlap. *)

type t = private {
  row : int;  (** bottom row *)
  height : int;  (** rows covered *)
  x : int;  (** left site *)
  width : int;  (** sites covered *)
}

val make : row:int -> height:int -> x:int -> width:int -> t
(** @raise Invalid_argument on non-positive dimensions or negative
    origin. *)

val inside : t -> Chip.t -> bool
(** Whether the blockage lies fully inside the chip. *)

val covers_row : t -> int -> bool

val overlaps_span : t -> row:int -> height:int -> x:float -> width:int -> bool
(** Whether a cell span (possibly at a fractional x) overlaps the
    blockage. *)

val area : t -> int
