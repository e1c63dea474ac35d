(** The textbook modulus-based Gauss-Seidel splitting [M = D + L],
    [N = -U] of an explicit square matrix: the reference instantiation of
    the generic {!Mclh_lcp.Mmsim} loop, which the LCP tests drive on
    random SPD problems. *)

open Mclh_linalg

val operators : ?omega:Vec.t -> Csr.t -> Mclh_lcp.Mmsim.operators
(** [omega] defaults to the identity diagonal.
    @raise Invalid_argument if the matrix is not square, a diagonal
      entry is not positive, or [omega] has the wrong dimension or a
      non-positive entry. *)
