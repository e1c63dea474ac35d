(** End-to-end legalization flow (Figure 4).

    global placement -> nearest-correct-row alignment -> multi-row cell
    splitting -> MMSIM on the converted LCP -> multi-row restoration ->
    Tetris-like allocation -> legal placement. *)

open Mclh_circuit

type timings = {
  assign_s : float;
  model_s : float;
  solve_s : float;
  alloc_s : float;
  total_s : float;
}

type result = {
  legal : Placement.t;
  model : Model.t;
  solver : Solver.result;
  alloc : Tetris_alloc.result;
  timings : timings;
}

val run : ?config:Config.t -> ?obs:Mclh_obs.Obs.t -> Design.t -> result
(** Executes the full pipeline. The output placement is legal for every
    design whose cells fit the chip (checked by the test suite with
    {!Mclh_circuit.Legality}).

    [obs] records the [flow/{assign,model,solve,alloc,total}] stage spans,
    a [flow/nonconverged] counter when MMSIM hits [max_iter], and is
    threaded into {!Solver.solve} and {!Tetris_alloc.run}. *)

val run_with :
  build:(Design.t -> Row_assign.t -> Model.t) ->
  ?config:Config.t ->
  ?obs:Mclh_obs.Obs.t ->
  Design.t ->
  result
(** {!run} with [build] as the model step in place of {!Model.build}:
    a caller that keeps the build's {!Model.layout} ({!Mclh_incr.Incr})
    runs the build's steps itself. *)

val legalize : ?config:Config.t -> Design.t -> Placement.t
(** [run] returning only the legal placement. *)

val illegal_after_mmsim : result -> int
(** Cells the Tetris-like stage had to fix — Table 1's "#I. Cell". *)
