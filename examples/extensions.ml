(* Beyond the paper's evaluation: taller cells, fixed blockages, and
   post-legalization wirelength refinement, all in one flow.

     dune exec examples/extensions.exe *)

open Mclh_circuit
open Mclh_benchgen
open Mclh_core

let () =
  (* an fft_2-shaped instance with 30% of the doubled cells regenerated as
     triple/quad height and 15% of the chip blocked by fixed macros *)
  let options =
    { Generate.default_options with
      tall_cell_fraction = 0.3;
      blockage_fraction = 0.15 }
  in
  let instance = Generate.generate ~options (Spec.scaled 0.02 (Spec.find "fft_2")) in
  let design = instance.Generate.design in
  Printf.printf "cells by height: %s\n"
    (Design.count_by_height design
    |> List.map (fun (h, c) -> Printf.sprintf "%d of height %d" c h)
    |> String.concat ", ");
  Printf.printf "blockages: %d (free capacity %d sites, density %.2f)\n\n"
    (Array.length design.Design.blockages)
    (Design.free_capacity design) (Design.density design);

  (* the MMSIM flow handles both: the Schur tridiagonal's per-chain solves
     serve cells of any height, and blockages shift each variable to its
     row-segment wall *)
  let result = Flow.run design in
  let legal = result.Flow.legal in
  assert (Legality.is_legal design legal);
  Printf.printf "legalized: %d MMSIM iterations, %d cells repaired by Tetris\n"
    result.Flow.solver.Solver.iterations
    (Flow.illegal_after_mmsim result);
  let rh = design.Design.chip.Chip.row_height in
  Printf.printf "displacement: %.1f sites\n"
    (Metrics.displacement ~row_height:rh ~before:design.Design.global legal)
      .Metrics.total_manhattan;

  (* detailed-placement refinement on top (the paper's cited follow-up
     direction): strictly HPWL-improving, legality-preserving *)
  let refined, stats = Mclh_refine.Refine.run design legal in
  assert (Legality.is_legal design refined);
  Printf.printf
    "refinement: HPWL %.0f -> %.0f (%.1f%% better; %d moves, %d reorders)\n"
    stats.Mclh_refine.Refine.hpwl_before stats.hpwl_after
    (100.0 *. Mclh_refine.Refine.improvement stats)
    stats.moves stats.reorders;

  Svg.write_file ~path:"extensions.svg" design refined;
  Printf.printf "layout with blockages written to extensions.svg\n"
