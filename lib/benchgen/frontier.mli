(** Lowest-frontier index for the generator's reference packing.

    The packer keeps one cursor per row: the first free site to the right
    of everything placed in that row. A cell of height [h] goes into the
    admitting row span [r .. r + h - 1] whose front (the largest cursor
    over the span) is lowest, ties going to the lower row.

    The index keeps one tournament tree per (height, bottom rail) class of
    the cells it was built for. Leaf [r] holds the front of the span
    starting at row [r], or [max_int] where {!Mclh_circuit.Chip.row_admits}
    refuses the class; each inner node keeps the lowest-front leaf of its
    range, the left (lower) one on a tie. A query reads the root, O(1);
    placing a cell of height [h] refreshes, in every class of height [h']
    that still has cells to place, the [h + h' - 1] spans that overlap the
    cell's rows, O((h + h') log rows) each. *)

type t

val create : Mclh_circuit.Chip.t -> Mclh_circuit.Cell.t array -> t
(** The index over the classes of [cells], with every row cursor at 0. *)

val lowest : t -> Mclh_circuit.Cell.t -> int
(** [lowest t c] is the first row of the admitting span of [c]'s class
    with the lowest front (the lowest such row on a tie) when that front
    plus [c.width] fits in the row, and [-1] when no admitting span fits.
    [c]'s class must still have a cell to place. O(1) and allocation-free:
    the packer calls it once per cell and attempt. *)

val front : t -> row:int -> height:int -> int
(** [front t ~row ~height] is the largest cursor over rows [row .. row +
    height - 1]. *)

val place : t -> Mclh_circuit.Cell.t -> row:int -> right:int -> unit
(** [place t c ~row ~right] sets the cursor of rows [row .. row + c.height
    - 1] to [right] and counts one cell of [c]'s class as placed. *)
