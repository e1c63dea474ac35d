(** The tridiagonal Schur-complement approximation

    [D = tridiag(B (Q + lambda E^T E)^-1 B^T)]

    of Equation (16). Every constraint row of [B] is a pair [(v, v + 1)]
    of one group of [Model.row_vars], and consecutive constraints share a
    variable, so the tridiagonal part captures the dominant coupling;
    each entry costs O(1).

    Two computation paths:
    - [Sherman_morrison]: the paper's closed form
      [(Q + lambda E^T E)^-1 = I - lambda/(2 lambda + 1) E^T E], exact when
      every multi-row cell spans exactly two rows (then [E E^T = 2 I]);
    - [Exact_chains]: exact arrowhead solves per cell chain, valid for any
      mix of cell heights.

    The two agree bit-for-near on all-double designs (property-tested). *)

open Mclh_linalg

type path = Sherman_morrison | Exact_chains

val tridiag : ?path:path -> Model.t -> lambda:float -> Tridiag.t
(** [tridiag model ~lambda] is [D], minus the couplings
    [model.d_split] drops. Default path: [Sherman_morrison] when
    {!Mclh_linalg.Blocks.all_double} holds, [Exact_chains] otherwise.
    @raise Invalid_argument if [Sherman_morrison] is requested for a design
      with a chain longer than two. *)
