(** The direct (non-iterative) backend for the per-shard solver chooser
    ({!Solver}).

    It solves the same Problem (13) sub-QP a chain-free decomposition
    shard represents and returns the MMSIM-equivalent unknowns: primal
    positions [x], ordering multipliers [r], and a modulus vector [s]
    reconstructed as [(gamma/2)(z - w)] — feeding it back as [?s0] lands
    a later MMSIM warm restart exactly on the fixed point, so the
    incremental solution cache never notices which backend produced an
    entry.

    Safety contract: the outcome carries its own KKT residual
    ({!Mclh_qp.Kkt.kkt_residual}); the dispatcher accepts a direct solve
    only when {!acceptable} holds and otherwise falls back to MMSIM, so a
    backend misfire can cost time but never correctness. *)

open Mclh_linalg

type outcome = {
  x : Vec.t;  (** subcell positions, length [Model.nvars] *)
  r : Vec.t;  (** ordering-constraint multipliers, length m *)
  modulus : Vec.t;
      (** MMSIM-compatible modulus vector [(gamma/2)(z - w)], length
          [n + m] *)
  residual : float;  (** KKT residual of (x, r), infinity norm *)
}

val chain_free_applicable : Model.t -> bool
(** True when the model has no subcell-equality chains (so [Q~ = I]) and
    every required separation is nonnegative — the preconditions of
    {!chain_free}. *)

val chain_free : Config.t -> Model.t -> outcome option
(** Exact O(n + m) solve for chain-free shards: with [Q~ = I] the QP
    decouples into one isotonic-regression-with-separations problem per
    ordering group, solved by pool-adjacent-violators after a
    prefix-shift change of variables (the feasible set becomes the
    isotone-nonnegative cone, whose projection is clip-after-PAVA).
    Multipliers are recovered by a right-to-left stationarity recurrence.
    [None] if the model's constraint layout violates the group-major
    build-order invariant (never expected); callers must still check
    {!acceptable} — degenerate ties can make the recovered multipliers
    inexact even though [x] is the projection. Only meaningful when
    {!chain_free_applicable} holds. *)

val acceptable : Config.t -> outcome -> bool
(** The dispatcher's acceptance test: the KKT residual is finite and at
    most [Config.direct_tol * (1 + max(||x||_inf, ||r||_inf))]. *)
