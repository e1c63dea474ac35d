(* Extensions beyond the paper's evaluation:
   - taller cells (triple/quadruple height): the Schur tridiagonal's
     per-chain solves serve every height, so nothing else changes;
   - blockages (fixed obstacles): the model shifts variables by row-segment
     left walls; the comparison re-runs with 15% of the chip blocked;
   - post-legalization detailed placement: HPWL recovered by the refinement
     on top of each legalizer. *)

open Mclh_circuit
open Mclh_core
open Mclh_benchgen
open Mclh_report

let bench_names = [ "fft_2"; "des_perf_1"; "matrix_mult_a" ]

let algorithms =
  [ Runner.Mmsim; Runner.Greedy_dac16_improved; Runner.Abacus_multirow ]

let comparison_table title options =
  Printf.printf "\n--- %s ---\n" title;
  let table =
    Table.create
      [ { Table.title = "Benchmark"; align = Table.Left };
        { title = "heights"; align = Left };
        { title = "#blockages"; align = Right };
        { title = "Ours"; align = Right };
        { title = "DAC'16-Imp"; align = Right };
        { title = "ASP-DAC'17"; align = Right };
        { title = "all legal"; align = Right } ]
  in
  List.iter
    (fun name ->
      let inst = Generate.generate ~options (Spec.scaled Util.scale (Spec.find name)) in
      let d = inst.Generate.design in
      let reports = List.map (fun alg -> Runner.run alg d) algorithms in
      let disp r = Table.fmt_int r.Runner.displacement.Metrics.total_manhattan in
      let heights =
        Design.count_by_height d
        |> List.map (fun (h, c) -> Printf.sprintf "%dx%d" c h)
        |> String.concat " "
      in
      match reports with
      | [ ours; dac16imp; aspdac ] ->
        Table.add_row table
          [ name;
            heights;
            string_of_int (Array.length d.Design.blockages);
            disp ours;
            disp dac16imp;
            disp aspdac;
            string_of_bool (List.for_all (fun r -> r.Runner.legal) reports) ]
      | _ -> assert false)
    bench_names;
  print_string (Table.render table)

let refine_table () =
  Printf.printf "\n--- detailed-placement refinement (HPWL recovered) ---\n";
  let table =
    Table.create
      [ { Table.title = "Benchmark"; align = Table.Left };
        { title = "legalizer"; align = Left };
        { title = "HPWL before"; align = Right };
        { title = "HPWL after"; align = Right };
        { title = "gain"; align = Right };
        { title = "moves/reorders"; align = Right } ]
  in
  List.iter
    (fun name ->
      let inst = Util.instance name in
      let d = inst.Generate.design in
      List.iter
        (fun alg ->
          let r = Runner.run alg d in
          let _, stats = Mclh_refine.Refine.run d r.Runner.placement in
          Table.add_row table
            [ name;
              Runner.name alg;
              Table.fmt_int stats.Mclh_refine.Refine.hpwl_before;
              Table.fmt_int stats.hpwl_after;
              Table.fmt_pct 2 (Mclh_refine.Refine.improvement stats);
              Printf.sprintf "%d/%d" stats.moves stats.reorders ])
        [ Runner.Mmsim; Runner.Abacus_multirow ])
    bench_names;
  print_string (Table.render table);
  Printf.printf
    "(the synthetic global placements are not wirelength-optimized, so the\n\
    \ refinement recovers far more HPWL than it would on a real GP input)\n"

let fence_table () =
  Printf.printf "\n--- fence regions (territorial decomposition) ---\n";
  let table =
    Table.create
      [ { Table.title = "Benchmark"; align = Table.Left };
        { title = "fences"; align = Right };
        { title = "members"; align = Right };
        { title = "territories"; align = Right };
        { title = "disp (sites)"; align = Right };
        { title = "legal"; align = Right } ]
  in
  List.iter
    (fun name ->
      let options = { Generate.default_options with fence_count = 2 } in
      let inst =
        Generate.generate ~options (Spec.scaled Util.scale (Spec.find name))
      in
      let d = inst.Generate.design in
      let members =
        Array.fold_left
          (fun acc (c : Cell.t) -> if c.Cell.region <> None then acc + 1 else acc)
          0 d.Design.cells
      in
      let legal, stats = Mclh_core.Fence.legalize d in
      Table.add_row table
        [ name;
          string_of_int (Array.length d.Design.regions);
          string_of_int members;
          string_of_int stats.Mclh_core.Fence.territories;
          Table.fmt_float 0 (Util.manhattan d legal);
          string_of_bool (Legality.is_legal d legal) ])
    bench_names;
  print_string (Table.render table)

let run () =
  Util.section "Extensions - taller cells, blockages, fences, refinement";
  comparison_table "taller cells (40% of the doubled cells become 3x/4x)"
    { Generate.default_options with tall_cell_fraction = 0.4 };
  comparison_table "blockages (15% of the chip area blocked)"
    { Generate.default_options with blockage_fraction = 0.15 };
  fence_table ();
  refine_table ()
