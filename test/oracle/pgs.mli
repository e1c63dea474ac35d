(** Projected Gauss-Seidel / projected SOR for LCP(q, A).

    An independent reference solver: it shares no code with the MMSIM, so
    agreement between the two on the same problem is strong evidence of
    correctness. Requires a strictly positive diagonal (satisfied by the
    SPD test matrices; the saddle-point legalization LCP is instead checked
    against the dense active-set QP oracle). *)

open Mclh_linalg
open Mclh_lcp

type options = {
  relaxation : float;  (** SOR factor in (0, 2); 1.0 = plain Gauss-Seidel *)
  eps : float;  (** stop when the sweep changes no component by more *)
  max_iter : int;
}

val default_options : options
(** [relaxation = 1.0], [eps = 1e-10], [max_iter = 50_000]. *)

type outcome = {
  z : Vec.t;
  iterations : int;
  converged : bool;
  delta_inf : float;
}

val solve : ?options:options -> ?z0:Vec.t -> Lcp.problem -> outcome
(** Sweeps [z_i <- max(0, z_i - omega (q_i + (A z)_i) / a_ii)].
    @raise Invalid_argument if a diagonal entry of [A] is not positive or
      the relaxation factor is outside (0, 2). *)
