(* Bechamel micro-benchmarks: one Test.make per paper table/figure,
   measuring the computational kernel that regenerates it on a small
   fixed instance (so the statistics are stable and fast). *)

open Bechamel
open Toolkit
open Mclh_core

let kernel_instance () =
  (* one small instance reused by every kernel *)
  Mclh_benchgen.Generate.generate
    (Mclh_benchgen.Spec.scaled 0.005 (Mclh_benchgen.Spec.find "fft_2"))

let tests () =
  let inst = kernel_instance () in
  let d = inst.Mclh_benchgen.Generate.design in
  let assignment = Row_assign.assign d in
  let model = Model.build d assignment in
  let single =
    Mclh_benchgen.Generate.generate
      ~options:
        { Mclh_benchgen.Generate.default_options with single_height_only = true }
      (Mclh_benchgen.Spec.scaled 0.005 (Mclh_benchgen.Spec.find "fft_2"))
  in
  let sd = single.Mclh_benchgen.Generate.design in
  let s_assignment = Row_assign.assign sd in
  [ (* Table 1: the MMSIM flow that produces the illegal-cell counts *)
    Test.make ~name:"table1/mmsim_flow"
      (Staged.stage (fun () -> ignore (Flow.run d)));
    (* Table 2: one kernel per comparison column *)
    Test.make ~name:"table2/ours"
      (Staged.stage (fun () -> ignore (Solver.solve model)));
    Test.make ~name:"table2/dac16"
      (Staged.stage (fun () ->
           ignore (Result.is_ok (Greedy_cpy.legalize ~options:Greedy_cpy.default d))));
    Test.make ~name:"table2/aspdac17"
      (Staged.stage (fun () -> ignore (Result.is_ok (Abacus_mr.legalize d))));
    (* Section 5.3: the two solvers whose speed ratio the paper reports *)
    Test.make ~name:"sec53/mmsim_single_height"
      (Staged.stage
         (let m = Model.build sd s_assignment in
          fun () -> ignore (Solver.solve m)));
    Test.make ~name:"sec53/placerow"
      (Staged.stage (fun () ->
           ignore (Abacus.legalize_fixed_rows sd s_assignment)));
    (* Figure 5: SVG rendering *)
    Test.make ~name:"fig5/svg_render"
      (Staged.stage
         (let legal = Flow.legalize d in
          fun () -> ignore (Mclh_circuit.Svg.render d legal))) ]

let run () =
  Util.section "Bechamel kernels (one per table/figure)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ v ] -> v
        | Some _ | None -> Float.nan
      in
      rows := (name, estimate) :: !rows)
    results;
  List.iter
    (fun (name, ns) -> Printf.printf "%-40s %12.1f ns/run (%10.3f ms)\n" name ns (ns /. 1e6))
    (List.sort compare !rows);
  print_newline ()
