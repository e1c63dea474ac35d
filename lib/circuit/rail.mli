(** Power-rail types.

    Cell rows are separated by alternating VDD and VSS rails. Odd-row-height
    cells can be aligned to any row (flipping vertically when needed);
    even-row-height cells carry the same rail type on both horizontal
    boundaries, so they fit only on rows whose bottom rail matches — and a
    mismatch cannot be fixed by flipping (Figure 1 of the paper). *)

type t = Vdd | Vss

val opposite : t -> t

val equal : t -> t -> bool

val to_string : t -> string
