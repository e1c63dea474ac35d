(** Abacus (Spindler et al., ISPD'08): the classic single-row-height
    legalizer.

    [place_row] is the optimal cluster-collapse dynamic program: given a
    fixed left-to-right cell order in one row, it minimizes the total
    quadratic x-displacement subject to non-overlap and the row
    boundaries. The paper's Section 5.3 uses it as the optimality oracle:
    with cells pre-assigned to rows and the right boundary relaxed, the
    MMSIM and PlaceRow must produce the same total displacement; the
    MMSIM's warm start ({!Warm_start.positions}) runs it on every row of
    the model. *)

open Mclh_circuit

type row_cell = {
  target : float;  (** desired x (global-placement position) *)
  width : float;
}

val place_row : ?xmin:float -> ?xmax:float -> row_cell array -> float array
(** [place_row cells] places the cells in the given order, abutting where
    necessary, minimizing [sum (x_i - target_i)^2] subject to
    [xmin <= x_first] and [x_last + w_last <= xmax] (defaults: [0.0] and
    [infinity] — the relaxed right boundary of Problem (5)). Returns the
    positions in input order: [x_i] is [(place_row cells).(i)].
    @raise Invalid_argument if a width is nonpositive or the cells cannot
      fit between the boundaries. *)

val place_row_cost : ?xmin:float -> ?xmax:float -> row_cell array -> float
(** The optimal quadratic displacement of {!place_row}. *)

val legalize_fixed_rows : Design.t -> Row_assign.t -> Placement.t
(** PlaceRow per assigned row with the right boundary relaxed — the
    Section 5.3 comparator (single-height designs only; raises
    [Invalid_argument] if a multi-row cell is present). The result is
    fractional; snap/repair with {!Tetris_alloc} for a legal placement. *)

val legalize_fixed_rows_incremental : Design.t -> Row_assign.t -> Placement.t
(** Same result as {!legalize_fixed_rows}, but computed the way an
    Abacus-style driver uses PlaceRow: one subroutine call per cell
    insertion (re-solving the row prefix each time), i.e. O(len^2) per
    row. This is the cost profile the paper's Section 5.3 compares the
    MMSIM against. *)
