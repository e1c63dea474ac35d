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

(* wall clock, not [Sys.time]: processor time over-counts multicore
   stages and under-counts anything that blocks *)
let timed = Mclh_par.Clock.timed

module Obs = Mclh_obs.Obs

let run_with ~build ?(config = Config.default) ?obs design =
  let start = Mclh_par.Clock.now () in
  let heartbeat fmt =
    Format.kasprintf
      (fun s -> if config.Config.progress then Printf.eprintf "[mclh] %s\n%!" s)
      fmt
  in
  heartbeat "%s: %d cells, assigning rows" design.Design.name
    (Array.length design.Design.cells);
  let assignment, assign_s = timed (fun () -> Row_assign.assign design) in
  Obs.record_span obs "flow/assign" assign_s;
  heartbeat "rows assigned (%.2fs), building model" assign_s;
  let model, model_s =
    timed (fun () -> build design assignment)
  in
  Obs.record_span obs "flow/model" model_s;
  heartbeat "model built: %d vars, %d constraints (%.2fs), solving" model.Model.nvars
    (Model.num_constraints model) model_s;
  let solver, solve_s =
    timed (fun () -> Solver.solve ~config ?obs model)
  in
  Obs.record_span obs "flow/solve" solve_s;
  (* a non-converged solve leaves residual overlaps to the Tetris stage *)
  if not solver.Solver.converged then Obs.incr obs "flow/nonconverged";
  heartbeat "solve done: %d iterations, converged %b (%.2fs), allocating"
    solver.Solver.iterations solver.Solver.converged solve_s;
  let relaxed = Model.placement_of model solver.Solver.x in
  let alloc, alloc_s =
    timed (fun () -> Tetris_alloc.run ?obs design relaxed)
  in
  Obs.record_span obs "flow/alloc" alloc_s;
  (match alloc.Tetris_alloc.unplaced with
  | [] -> ()
  | unplaced -> Obs.add obs "flow/unplaced" (List.length unplaced));
  let total_s = Mclh_par.Clock.now () -. start in
  heartbeat "done: %d relocated, %.2fs total" alloc.Tetris_alloc.relocated total_s;
  Obs.record_span obs "flow/total" total_s;
  { legal = alloc.Tetris_alloc.placement;
    model;
    solver;
    alloc;
    timings = { assign_s; model_s; solve_s; alloc_s; total_s } }

let run ?(config = Config.default) ?obs design =
  run_with ~build:(Model.build ~num_domains:config.Config.num_domains) ~config
    ?obs design

let legalize ?config design = (run ?config design).legal

let illegal_after_mmsim result = result.alloc.Tetris_alloc.illegal_before
