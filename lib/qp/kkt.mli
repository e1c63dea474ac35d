(** KKT reformulation: convex QP -> LCP (Equations (7)-(8) / (14)-(15)).

    For the QP of {!Qp}, the KKT conditions are equivalent to LCP(q, A) with

    A = [ Q  -B^T ]      q = [ p  ]      z = [ x ]
        [ B   0   ]          [ -b ]          [ r ]

    where [r] are the multipliers of [B x >= b]. Theorem 1 of the paper:
    [x] solves the QP iff [(x, r)] solves the LCP. *)

open Mclh_linalg

val to_lcp : Qp.t -> Mclh_lcp.Lcp.problem
(** Assembles the explicit sparse KKT system matrix and right-hand side. *)

val kkt_residual : Qp.t -> x:Vec.t -> r:Vec.t -> float
(** Infinity norm of the stationarity/complementarity residual of (7):
    the largest violation among [u = Qx + p - B^T r >= 0], [v = Bx - b >= 0],
    [x, r >= 0], [r^T v = 0] and [u^T x = 0] (complementarity measured
    componentwise). *)
