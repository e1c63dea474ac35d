(* Density-driven global placement benchmark (lib/gp + the pipeline).

   For each design family the full flow runs end to end: GP from the
   netlist (per-round HPWL/overflow curves recorded), MMSIM legalization
   of the honest overlapping output, detailed-placement refinement. The
   point of the exercise is Table-1 realism: GP inputs must arrive with
   hundreds of illegal cells (not the feasible-by-construction
   synthetics) and still leave the pipeline legal, with the dHPWL cost
   of legalization measured against the placer's fractional optimum. *)

open Mclh_circuit
open Mclh_core

let families () =
  if Util.fast_mode then [ "fft_2"; "pci_bridge32_b"; "matrix_mult_a" ]
  else
    [ "fft_1"; "fft_2"; "fft_a"; "fft_b"; "pci_bridge32_a"; "pci_bridge32_b";
      "matrix_mult_1"; "matrix_mult_2"; "matrix_mult_a" ]

type outcome = {
  name : string;
  cells : int;
  grid : int;
  rounds : int;
  illegal_pre : int;
  final_overflow : float;
  dhpwl : float;  (* refined legal vs fractional GP *)
  legal : bool;
  seconds : float;  (* GP + legalize + refine *)
}

let run_one name =
  let inst = Util.instance name in
  let skeleton = inst.Mclh_benchgen.Generate.design in
  let rh = Util.row_height skeleton in
  let (gp, stats), gp_s =
    Mclh_par.Clock.timed (fun () -> Mclh_gp.Gp.place skeleton)
  in
  let design =
    Design.make ~blockages:skeleton.Design.blockages ~name
      ~chip:skeleton.Design.chip ~cells:skeleton.Design.cells ~global:gp
      ~nets:skeleton.Design.nets ()
  in
  let illegal_pre = Legality.count_illegal design gp in
  let report, legalize_s =
    Mclh_par.Clock.timed (fun () -> Runner.run Runner.Mmsim design)
  in
  let refined, refine_s =
    Mclh_par.Clock.timed (fun () ->
        fst (Mclh_refine.Refine.run design report.Runner.placement))
  in
  { name;
    cells = Design.num_cells design;
    grid = stats.Mclh_gp.Gp.grid;
    rounds = List.length stats.Mclh_gp.Gp.rounds;
    illegal_pre;
    final_overflow = stats.Mclh_gp.Gp.final_overflow;
    dhpwl = Hpwl.delta ~row_height:rh design.Design.nets ~before:gp refined;
    legal = Legality.is_legal design refined;
    seconds = gp_s +. legalize_s +. refine_s }

let run () =
  Util.section "Density-driven global placement -> legalize -> refine (lib/gp)";
  let outcomes = Util.fanout ~label:"gp-pipeline" run_one (families ()) in
  Printf.printf "%-16s %7s %5s %7s %8s %9s %8s %6s %8s\n" "design" "cells"
    "grid" "rounds" "illegal" "overflow" "dHPWL" "legal" "time(s)";
  List.iter
    (fun o ->
      Printf.printf "%-16s %7d %5d %7d %8d %8.1f%% %+7.2f%% %6b %8.2f\n"
        o.name o.cells o.grid o.rounds o.illegal_pre
        (100.0 *. o.final_overflow)
        (100.0 *. o.dhpwl)
        o.legal o.seconds)
    outcomes;
  let all_legal = List.for_all (fun o -> o.legal) outcomes in
  let max_overflow =
    List.fold_left (fun acc o -> Float.max acc o.final_overflow) 0.0 outcomes
  in
  let min_illegal =
    List.fold_left (fun acc o -> min acc o.illegal_pre) max_int outcomes
  in
  Printf.printf
    "all legal %b; worst final overflow %.1f%%; min illegal pre %d\n%!"
    all_legal (100.0 *. max_overflow) min_illegal;
