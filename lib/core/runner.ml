open Mclh_circuit
module Obs = Mclh_obs.Obs

type algorithm =
  | Mmsim
  | Greedy_dac16
  | Greedy_dac16_improved
  | Abacus_multirow
  | Tetris

let all =
  [ Mmsim; Greedy_dac16; Greedy_dac16_improved; Abacus_multirow; Tetris ]

let name = function
  | Mmsim -> "mmsim"
  | Greedy_dac16 -> "dac16"
  | Greedy_dac16_improved -> "dac16-imp"
  | Abacus_multirow -> "aspdac17"
  | Tetris -> "tetris"

let of_name s = List.find_opt (fun a -> name a = s) all

type report = {
  algorithm : algorithm;
  placement : Placement.t;
  legal : bool;
  displacement : Metrics.t;
  delta_hpwl : float;
  runtime_s : float;
  unplaced : int list;
  mmsim : Flow.result option;
  fence : Fence.stats option;
  obs : Obs.t option;
}

let snap design placement =
  let alloc = Tetris_alloc.run design placement in
  (alloc.Tetris_alloc.placement, alloc.Tetris_alloc.unplaced)

(* a baseline's typed failure still yields a measurable partial placement *)
let unwrap = function
  | Ok pl -> (pl, [])
  | Error u -> (u.Unplaced.partial, u.Unplaced.cells)

let run ?(config = Config.default) ?obs algorithm design =
  let obs =
    match obs with
    | Some _ as o -> o
    | None -> if config.Config.metrics then Some (Obs.create ()) else None
  in
  let t0 = Mclh_par.Clock.now () in
  let placement, unplaced, mmsim, fence =
    match algorithm with
    | Mmsim ->
      if Array.length design.Design.regions > 0 then begin
        let legal, stats = Fence.legalize ~config ?obs design in
        (legal, Fence.total_unplaced stats, None, Some stats)
      end
      else begin
        let result = Flow.run ~config ?obs design in
        ( result.Flow.legal,
          result.Flow.alloc.Tetris_alloc.unplaced,
          Some result,
          None )
      end
    | Greedy_dac16 ->
      let pl, unplaced =
        unwrap (Greedy_cpy.legalize ~options:Greedy_cpy.default design)
      in
      (pl, unplaced, None, None)
    | Greedy_dac16_improved ->
      let pl, unplaced =
        unwrap (Greedy_cpy.legalize ~options:Greedy_cpy.improved design)
      in
      (pl, unplaced, None, None)
    | Abacus_multirow ->
      let fractional, ab_unplaced = unwrap (Abacus_mr.legalize design) in
      let pl, alloc_unplaced = snap design fractional in
      (pl, List.sort_uniq compare (ab_unplaced @ alloc_unplaced), None, None)
    | Tetris ->
      let pl, unplaced = unwrap (Tetris_legal.legalize design) in
      (pl, unplaced, None, None)
  in
  let runtime_s = Mclh_par.Clock.now () -. t0 in
  let legal = Legality.is_legal design placement in
  let displacement =
    Metrics.displacement ~row_height:design.Design.chip.Chip.row_height
      ~before:design.Design.global placement
  in
  let delta_hpwl =
    Hpwl.delta ~row_height:design.Design.chip.Chip.row_height
      design.Design.nets ~before:design.Design.global placement
  in
  Obs.record_span obs "runner/total" runtime_s;
  Obs.add obs "runner/legal" (if legal then 1 else 0);
  Obs.add obs "runner/unplaced" (List.length unplaced);
  Obs.gauge obs "runner/delta_hpwl" delta_hpwl;
  if runtime_s > 0.0 then
    Obs.gauge obs "runner/cells_per_s"
      (float_of_int (Array.length design.Design.cells) /. runtime_s);
  (match Obs.peak_rss_kb () with
  | Some kb -> Obs.gauge obs "mem/peak_rss_kb" (float_of_int kb)
  | None -> ());
  { algorithm;
    placement;
    legal;
    displacement;
    delta_hpwl;
    runtime_s;
    unplaced;
    mmsim;
    fence;
    obs }

let converged report =
  match (report.mmsim, report.fence) with
  | Some flow, _ -> Some flow.Flow.solver.Solver.converged
  | None, Some stats -> Some (Fence.all_converged stats)
  | None, None -> None
