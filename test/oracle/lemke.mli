(** Lemke's complementary pivoting algorithm for LCP(q, A).

    The classic direct method: augment with an artificial variable [z0] and
    a covering vector, then pivot complementarily until [z0] leaves the
    basis (solution found) or a secondary ray appears (no solution found
    along the path). Terminates with a solution for copositive-plus
    matrices — which includes the positive semidefinite saddle-point
    matrix of the legalization KKT system — whenever the LCP is solvable.

    Dense O(n^2) per pivot: this is a *reference* solver for small
    problems, used to validate the MMSIM independently (it shares no code
    and no algorithmic idea with the modulus iteration). *)

open Mclh_linalg
open Mclh_lcp

type outcome =
  | Solution of Vec.t  (** a z with [w = Az + q >= 0], [z >= 0], [z^T w = 0] *)
  | Ray_termination  (** a secondary ray: Lemke's path found no solution *)
  | Iteration_limit

val solve : ?max_iter:int -> Lcp.problem -> outcome
(** [solve p] runs Lemke's method with the all-ones covering vector.
    [max_iter] defaults to [50 * n + 200] pivots. Ties in the ratio test are
    broken by smallest row index with a tiny anti-cycling perturbation on
    the right-hand side. *)
