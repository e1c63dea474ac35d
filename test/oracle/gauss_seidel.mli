(** The textbook modulus-based Gauss-Seidel splitting [M = D + L],
    [N = -U] of an explicit square matrix: the reference instantiation of
    the generic {!Mclh_lcp.Mmsim} loop, which the LCP tests drive on
    random SPD problems. *)

open Mclh_linalg

val operators : Csr.t -> Mclh_lcp.Mmsim.operators
(** @raise Invalid_argument if the matrix is not square or a diagonal
      entry is not positive. *)
