(** The chip region: a grid of rows and placement sites with alternating
    power rails.

    Coordinates are grid-normalized: x in site widths (as the paper's
    "Total Disp. (sites)" column), y in row indices. A row is physically
    [row_height] site widths tall; metrics scale y by it. *)

type t = private {
  num_rows : int;
  num_sites : int;  (** sites per row *)
  base_rail : Rail.t;  (** rail at the bottom boundary of row 0 *)
  row_height : float;
      (** physical height of one row measured in site widths; standard-cell
          rows are typically 8-12 sites tall, so vertical movement is far
          more expensive than horizontal. All displacement and wirelength
          metrics in site units scale y by this factor. *)
}

val make :
  ?base_rail:Rail.t -> ?row_height:float -> num_rows:int -> num_sites:int ->
  unit -> t
(** Defaults: [base_rail = Vss], [row_height = 8.0].
    @raise Invalid_argument if [num_rows < 1], [num_sites < 1] or
      [row_height <= 0]. *)

val bottom_rail : t -> int -> Rail.t
(** [bottom_rail chip row] is the rail type along the bottom boundary of
    [row]; rails alternate, so row parity decides.
    @raise Invalid_argument when [row] is outside [0 .. num_rows - 1]. *)

val row_in_range : t -> row:int -> height:int -> bool
(** Whether a cell of the given height starting at [row] lies inside the
    chip vertically. *)

val row_admits : t -> Cell.t -> int -> bool
(** [row_admits chip cell row] combines {!row_in_range} with the power-rail
    alignment rule: odd-height cells fit any in-range row (flipping handles
    rail polarity); even-height cells additionally need
    [bottom_rail chip row] to equal the cell's designed bottom rail. *)

val nearest_admitting_row : t -> Cell.t -> float -> int option
(** [nearest_admitting_row chip cell y] is the admissible row minimizing
    [|row - y|], or [None] if no row admits the cell (e.g. the chip is
    shorter than the cell). Ties are broken toward the lower row. *)

val capacity : t -> int
(** Total number of site-row units. *)
