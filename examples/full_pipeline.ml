(* The complete physical-design slice, end to end on one netlist:

     analytical global placement (quadratic wirelength + density spreading)
       -> the paper's MMSIM legalization
         -> detailed-placement refinement

   The netlist/cell mix comes from the synthetic fft_2 spec; the
   generator's own placement is discarded — the global placer starts
   from scratch.

     dune exec examples/full_pipeline.exe *)

open Mclh_circuit
open Mclh_benchgen
open Mclh_core

let () =
  let inst = Generate.generate_named ~scale:0.02 "fft_2" in
  let skeleton = inst.Generate.design in
  let rh = skeleton.Design.chip.Chip.row_height in
  Printf.printf "netlist: %d cells, %d nets\n\n"
    (Design.num_cells skeleton)
    (Netlist.num_nets skeleton.Design.nets);

  (* 1. density-driven global placement from scratch *)
  let gp, gp_stats = Mclh_gp.Gp.place skeleton in
  Printf.printf "global placement (%d density rounds, %dx%d grid):\n"
    (List.length gp_stats.Mclh_gp.Gp.rounds)
    gp_stats.Mclh_gp.Gp.grid gp_stats.Mclh_gp.Gp.grid;
  List.iter
    (fun (r : Mclh_gp.Gp.round) ->
      if (r.index - 1) mod 3 = 0 then
        Printf.printf "  round %2d: alpha %-8.3f HPWL %-9.0f overflow %.1f%%\n"
          r.index r.alpha r.hpwl (100.0 *. r.overflow))
    gp_stats.rounds;
  Printf.printf "  final GP HPWL: %.0f (overflow %.1f%%)\n\n"
    gp_stats.final_hpwl
    (100.0 *. gp_stats.final_overflow);

  (* 2. the paper's legalization flow on the GP output *)
  let design =
    Design.make ~blockages:skeleton.Design.blockages ~name:"pipeline"
      ~chip:skeleton.Design.chip ~cells:skeleton.Design.cells ~global:gp
      ~nets:skeleton.Design.nets ()
  in
  let result = Flow.run design in
  assert (Legality.is_legal design result.Flow.legal);
  let disp =
    Metrics.displacement ~row_height:rh ~before:gp result.Flow.legal
  in
  Printf.printf "legalization (MMSIM): %d iterations, %d repairs\n"
    result.Flow.solver.Solver.iterations
    (Flow.illegal_after_mmsim result);
  Printf.printf "  displacement %.1f sites (%.2f per cell), dHPWL %+.2f%%\n\n"
    disp.Metrics.total_manhattan
    (Metrics.avg_manhattan disp (Design.num_cells design))
    (100.0
    *. Hpwl.delta ~row_height:rh design.Design.nets ~before:gp result.Flow.legal);

  (* 3. detailed placement on top *)
  let refined, stats = Mclh_refine.Refine.run design result.Flow.legal in
  assert (Legality.is_legal design refined);
  Printf.printf "refinement: HPWL %.0f -> %.0f (%.1f%%)\n"
    stats.Mclh_refine.Refine.hpwl_before stats.hpwl_after
    (100.0 *. Mclh_refine.Refine.improvement stats);

  Svg.write_file ~path:"full_pipeline.svg" design refined;
  Printf.printf "\nfinal layout written to full_pipeline.svg\n"
