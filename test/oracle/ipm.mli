(** Primal-dual interior-point method for the convex QP of {!Qp}.

    An infeasible-start path-following method over the unified constraint
    system [G x >= h] (the [m] rows of [B] followed by the [n] bounds
    [x >= 0]). Each iteration eliminates the slack and multiplier blocks
    and solves the dense normal system
    [(Q + G^T D^-1 G) dx = rhs] by LU — O(n^3) per step, so this is a
    *reference* solver for small and medium instances.

    Unlike the active-set oracle it needs no feasible start, and unlike
    the MMSIM it follows the central path: three mutually independent
    solvers for the same problem class, cross-checked in the tests. *)

open Mclh_linalg
open Mclh_qp

type options = {
  tol : float;  (** stop when duality measure and residuals are below *)
  max_iter : int;
  sigma : float;  (** centering parameter in (0, 1) *)
}

val default_options : options
(** [tol = 1e-9], [max_iter = 200], [sigma = 0.2]. *)

type outcome = {
  x : Vec.t;
  multipliers : Vec.t;  (** for [B x >= b] *)
  bound_multipliers : Vec.t;  (** for [x >= 0] *)
  iterations : int;
  converged : bool;
  duality_gap : float;  (** final complementarity measure mu *)
}

val solve : ?options:options -> Qp.t -> outcome
(** Runs the method from the all-ones interior start. *)
