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
    Test.make ~name:"table2/ours_monolithic"
      (Staged.stage (fun () ->
           ignore
             (Solver.solve
                ~config:{ Config.default with decompose = false }
                model)));
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

(* machine-readable perf snapshot for CI trend tracking: solver wall
   times (monolithic vs component-decomposed), iteration counts,
   component structure, and the steady-state minor-heap allocation per
   MMSIM iteration (0 on the in-place path) *)
let write_perf_json () =
  let inst = kernel_instance () in
  let d = inst.Mclh_benchgen.Generate.design in
  let model = Model.build d (Row_assign.assign d) in
  let deco = Decompose.analyze model in
  let mono, t_mono =
    Mclh_par.Clock.timed (fun () ->
        Solver.solve ~config:{ Config.default with decompose = false } model)
  in
  let dec, t_dec = Mclh_par.Clock.timed (fun () -> Solver.solve model) in
  let words_per_iter =
    let config = { Config.default with num_domains = 1 } in
    let ops = Solver.operators_inplace model config in
    let q = Solver.rhs_q model in
    let run iters =
      let options =
        { Mclh_lcp.Mmsim.default_options with eps = 1e-300; max_iter = iters }
      in
      let before = Gc.minor_words () in
      ignore (Mclh_lcp.Mmsim.solve_inplace ~options ops ~q);
      Gc.minor_words () -. before
    in
    ignore (run 3) (* warm up the code path *);
    let lo = run 10 and hi = run 110 in
    (hi -. lo) /. 100.0
  in
  Util.ensure_out_dir ();
  let path = Filename.concat Util.out_dir "BENCH_pr2.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"design\": \"fft_2\",\n\
    \  \"nvars\": %d,\n\
    \  \"constraints\": %d,\n\
    \  \"components\": %d,\n\
    \  \"largest_component_dim\": %d,\n\
    \  \"shards\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"solve_monolithic_s\": %.6f,\n\
    \  \"solve_decomposed_s\": %.6f,\n\
    \  \"solve_speedup\": %.3f,\n\
    \  \"iterations_monolithic\": %d,\n\
    \  \"iterations_decomposed_max\": %d,\n\
    \  \"minor_words_per_iteration\": %.3f\n\
     }\n"
    model.Model.nvars (Model.num_constraints model)
    (Decompose.num_components deco) (Decompose.largest_dim deco)
    (Decompose.num_shards deco) Config.default.Config.num_domains t_mono t_dec
    (if t_dec > 0.0 then t_mono /. t_dec else 1.0)
    mono.Solver.iterations dec.Solver.iterations words_per_iter;
  close_out oc;
  Printf.printf "perf snapshot written to %s\n%!" path

(* observability snapshot: one metrics-enabled legalization of the kernel
   instance serialized as the full versioned run report — stage spans,
   convergence traces, Tetris repair counters. CI archives it next to
   BENCH_pr2.json so metric names and magnitudes are trackable over time. *)
let write_obs_json () =
  let inst = kernel_instance () in
  let d = inst.Mclh_benchgen.Generate.design in
  let config = { Config.default with metrics = true } in
  let r = Runner.run ~config Runner.Mmsim d in
  Util.ensure_out_dir ();
  let path = Filename.concat Util.out_dir "BENCH_pr4.json" in
  (match r.Runner.obs with
  | None -> ()
  | Some obs ->
    let open Mclh_report in
    let meta =
      [ ("design", Json.String "fft_2");
        ("cells", Json.Int (Mclh_circuit.Design.num_cells d));
        ("algorithm", Json.String (Runner.name r.Runner.algorithm));
        ("legal", Json.Bool r.Runner.legal);
        ("runtime_s", Json.Float r.Runner.runtime_s) ]
    in
    Mclh_obs.Run_report.write ~path (Mclh_obs.Run_report.to_json ~meta obs));
  Printf.printf "obs snapshot written to %s\n%!" path

(* backend-chooser snapshot: plain MMSIM (budget raised until it actually
   converges) vs the Auto chooser on the two slow-contracting benchmarks
   of the PR-6 acceptance bar, at scale 0.04. Records per-backend shard
   counts (chooser-hit rates), fallbacks, iteration totals, the >= 3x
   iteration speedup, and the position agreement both raw (iterate-change
   stopping leaves each run within its own tolerance of the common fixed
   point) and after the snapping stage (bit-identical placements). *)
let write_backend_json () =
  let bench name =
    let d =
      (Mclh_benchgen.Generate.generate
         (Mclh_benchgen.Spec.scaled 0.04 (Mclh_benchgen.Spec.find name)))
        .Mclh_benchgen.Generate.design
    in
    let model = Model.build d (Row_assign.assign d) in
    let plain, t_plain =
      Mclh_par.Clock.timed (fun () ->
          Solver.solve
            ~config:
              { Config.default with
                backend = Config.Plain;
                max_iter = 2_000_000 }
            model)
    in
    let auto, t_auto = Mclh_par.Clock.timed (fun () -> Solver.solve model) in
    let xs (r : Solver.result) =
      (Model.placement_of model r.Solver.x).Mclh_circuit.Placement.xs
    in
    let snap_xs (r : Solver.result) =
      (Tetris_alloc.run d (Model.placement_of model r.Solver.x))
        .Tetris_alloc.placement
        .Mclh_circuit.Placement.xs
    in
    let bs = auto.Solver.backends in
    let shard_solves =
      bs.Solver.chain_free + bs.Solver.accel + bs.Solver.plain
    in
    let rate c =
      if shard_solves = 0 then 0.0 else float_of_int c /. float_of_int shard_solves
    in
    Printf.sprintf
      "    {\n\
      \      \"design\": \"%s\",\n\
      \      \"cells\": %d,\n\
      \      \"plain\": { \"iterations_total\": %d, \"converged\": %b, \
       \"max_iter\": 2000000, \"time_s\": %.4f },\n\
      \      \"auto\": {\n\
      \        \"iterations_total\": %d, \"converged\": %b, \"time_s\": %.4f,\n\
      \        \"shard_solves\": %d, \"fallbacks\": %d,\n\
      \        \"backends\": { \"chain_free\": %d, \"accel\": %d, \
       \"plain\": %d },\n\
      \        \"backend_rates\": { \"chain_free\": %.3f, \"accel\": %.3f, \
       \"plain\": %.3f }\n\
      \      },\n\
      \      \"iteration_speedup\": %.2f,\n\
      \      \"max_position_diff_sites\": %.3e,\n\
      \      \"max_position_diff_post_snap\": %.3e\n\
      \    }"
      name
      (Mclh_circuit.Design.num_cells d)
      plain.Solver.iterations_total plain.Solver.converged t_plain
      auto.Solver.iterations_total auto.Solver.converged t_auto shard_solves
      bs.Solver.fallbacks bs.Solver.chain_free bs.Solver.accel bs.Solver.plain
      (rate bs.Solver.chain_free) (rate bs.Solver.accel) (rate bs.Solver.plain)
      (float_of_int plain.Solver.iterations_total
      /. float_of_int (max 1 auto.Solver.iterations_total))
      (Mclh_linalg.Vec.dist_inf (xs plain) (xs auto))
      (Mclh_linalg.Vec.dist_inf (snap_xs plain) (snap_xs auto))
  in
  Util.ensure_out_dir ();
  let path = Filename.concat Util.out_dir "BENCH_pr6.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"scale\": 0.04,\n  \"designs\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map bench [ "des_perf_1"; "matrix_mult_1" ]));
  close_out oc;
  Printf.printf "backend snapshot written to %s\n%!" path

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
  print_newline ();
  write_perf_json ();
  write_obs_json ();
  write_backend_json ()
