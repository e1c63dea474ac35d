(** Standard cells.

    Dimensions are in placement grid units: width in sites, height in rows.
    Even-row-height cells carry the rail type their bottom boundary was
    designed for; odd-row-height cells are flippable and carry none. *)

type t = private {
  id : int;  (** index into the design's cell array *)
  name : string;
  width : int;  (** in sites, >= 1 *)
  height : int;  (** in rows, >= 1 *)
  bottom_rail : Rail.t option;
      (** [Some _] iff the height is even; enforced by {!make} *)
  region : int option;
      (** fence-region membership: index into the design's region array;
          [None] = the default territory outside every fence *)
}

val make :
  id:int -> ?name:string -> width:int -> height:int ->
  ?bottom_rail:Rail.t -> ?region:int -> unit -> t
(** Builds a cell. [name] defaults to ["c<id>"].
    @raise Invalid_argument if [width < 1], [height < 1], an even-height
      cell lacks [bottom_rail], or an odd-height cell supplies one. *)

val is_multi_row : t -> bool
(** Height of at least two rows. *)

val is_even_height : t -> bool

val area : t -> int
(** [width * height] in site-row units. *)
