(** Consistent warm start for the MMSIM (the [s_0] input of Algorithm 1).

    Algorithm 1 converges from any [s_0]; this module constructs one close
    to the fixed point so that few iterations remain:

    + per chip row, the single-row optimum by Abacus PlaceRow (right
      boundary relaxed, matching Problem (5)), with each multi-row cell's
      subcell positions averaged so that [E x_0 = 0] holds exactly and the
      lambda penalty contributes no startup residual;
    + the multipliers of the ordering constraints recovered exactly from
      KKT stationarity by a right-to-left sweep (zero across slack
      constraints);
    + the modulus encoding [s_0 = (gamma/2) (z_0 - w_0+)] with
      [w_0 = A z_0 + q] and the MMSIM's fixed {!Mclh_lcp.Mmsim.gamma},
      so active bounds and slack constraints carry their complementary
      values.

    When {!exact} holds (no multi-row chains, nonnegative separations:
    every single-height design, and every chain-free shard of a mixed
    one) this [s_0] is the fixed point (Sec 5.3: on single-height rows
    the optimum is PlaceRow's), and the MMSIM verifies it in one
    iteration. With multi-row cells the residual is localized at the
    subcell-equality chains — exactly the coupling PlaceRow cannot
    express and the MMSIM is there to resolve. The ablation benchmark
    measures iteration counts against the paper's {!plain_start}. *)

open Mclh_linalg

val plain_start : Model.t -> Vec.t
(** The paper's start vector [s_0 = (gamma/2) (-p; 0)]: every subcell at
    its global-placement position, every multiplier zero. Algorithm 1
    reaches the same fixed point from it, only in more iterations than
    from {!modulus_vector}. *)

val exact : Model.t -> bool
(** True when the model has no subcell-equality chains (so [Q~ = I]) and
    every required separation is nonnegative: then {!modulus_vector} is
    the LCP fixed point, and the solver starts such a shard from it
    whatever start vector it was offered. *)

val positions : Model.t -> Vec.t
(** Per-row PlaceRow positions for every subcell variable (step 1),
    written into one array indexed by variable. *)

val multipliers : Model.t -> Vec.t -> Vec.t
(** [multipliers model x0] recovers ordering-constraint multipliers from
    positions by the right-to-left stationarity sweep (step 2). *)

val modulus_vector : Model.t -> Mclh_lcp.Mmsim.operators -> Vec.t
(** The assembled [s_0] (steps 1-3), at the scaling
    {!Mclh_lcp.Mmsim.gamma}. [ops] are the
    model's MMSIM operators ({!Solver.operators}); only their [A] product
    is used, to form [w_0]. *)
