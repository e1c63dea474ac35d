(** The tridiagonal Schur-complement approximation

    [D = tridiag(B (Q + lambda E^T E)^-1 B^T)]

    of Equation (16). Every constraint row of [B] is a pair [(v, v + 1)]
    of one group of [Model.row_vars], and consecutive constraints share a
    variable, so the tridiagonal part captures the dominant coupling.

    Each column [(Q + lambda E^T E)^-1 B_i^T] comes from one exact
    arrowhead solve of the cell chains holding [B_i]'s two variables
    ({!Mclh_linalg.Blocks.solve_pair_into}), so one formula serves every
    mix of cell heights; each column costs O(height of its cells) and
    serves the diagonal and off-diagonal entries it feeds. The
    paper's Sherman-Morrison closed form
    [(Q + lambda E^T E)^-1 = I - lambda/(2 lambda + 1) E^T E], exact when
    every multi-row cell spans two rows, is kept as the tests' oracle,
    which holds the two to the same bits on all-double models at the
    default lambda. *)

open Mclh_linalg

val tridiag : Model.t -> lambda:float -> Tridiag.t
(** [tridiag model ~lambda] is [D], minus the couplings [model.d_split]
    drops.
    @raise Invalid_argument if [lambda] is not positive. *)
