(* End-to-end tests: the complete MMSIM flow, the baseline legalizers, the
   runner, the Section 5.3 optimality equality, and flow-level property
   tests on random instances. *)

open Mclh_circuit
open Mclh_core
open Mclh_benchgen

let generate ?(options = Generate.default_options) name scale =
  Generate.generate ~options (Spec.scaled scale (Spec.find name))

let check_legal what d pl =
  let v = Legality.check d pl in
  if v <> [] then begin
    List.iteri
      (fun i viol ->
        if i < 5 then Format.eprintf "  %a@." Legality.pp_violation viol)
      v;
    Alcotest.failf "%s: %d legality violations" what (List.length v)
  end

let test_flow_legal_across_suite () =
  List.iter
    (fun name ->
      let inst = generate name 0.005 in
      let d = inst.Generate.design in
      let res = Flow.run d in
      check_legal (name ^ " mmsim flow") d res.Flow.legal)
    [ "des_perf_1"; "des_perf_a"; "fft_1"; "fft_2"; "pci_bridge32_b";
      "matrix_mult_b"; "superblue14" ]

let test_flow_preserves_order () =
  let inst = generate "fft_2" 0.01 in
  let d = inst.Generate.design in
  let res = Flow.run d in
  let pres = Order.preservation d res.Flow.legal in
  Alcotest.(check bool)
    (Printf.sprintf "order preservation %.4f >= 0.99" pres)
    true (pres >= 0.99)

let test_flow_beats_reference_displacement () =
  (* the flow's displacement must not exceed the (non-optimized) reference
     packing displacement: the reference is a feasible solution of the same
     problem *)
  let inst = generate "fft_2" 0.01 in
  let d = inst.Generate.design in
  let rh = d.Design.chip.Chip.row_height in
  let res = Flow.run d in
  let flow_disp =
    (Metrics.displacement ~row_height:rh ~before:d.Design.global res.Flow.legal)
      .Metrics.total_manhattan
  in
  let ref_disp =
    (Metrics.displacement ~row_height:rh ~before:d.Design.global
       inst.Generate.reference)
      .Metrics.total_manhattan
  in
  Alcotest.(check bool)
    (Printf.sprintf "flow %.1f <= reference %.1f" flow_disp ref_disp)
    true
    (flow_disp <= ref_disp +. 1e-6)

let test_zero_noise_perfect_preservation () =
  (* with no x noise the global order has no inversions, so the flow must
     preserve it exactly *)
  let options =
    { Generate.default_options with noise_x_sigma = 0.0; hotspot_strength = 0.0 }
  in
  let inst = generate ~options "fft_2" 0.008 in
  let d = inst.Generate.design in
  let res = Flow.run d in
  Alcotest.(check (float 1e-9)) "perfect preservation" 1.0
    (Order.preservation d res.Flow.legal)

let test_baselines_legal () =
  let inst = generate "fft_1" 0.01 in
  let d = inst.Generate.design in
  List.iter
    (fun alg ->
      let r = Runner.run alg d in
      Alcotest.(check bool) (Runner.name alg ^ " legal") true r.Runner.legal)
    Runner.all

let test_runner_names () =
  List.iter
    (fun alg ->
      match Runner.of_name (Runner.name alg) with
      | Some a -> Alcotest.(check string) "roundtrip" (Runner.name alg) (Runner.name a)
      | None -> Alcotest.fail "name roundtrip failed")
    Runner.all;
  Alcotest.(check bool) "unknown name" true (Runner.of_name "nope" = None)

(* Section 5.3: on single-height designs with the right boundary relaxed,
   the MMSIM and Abacus PlaceRow give the same total displacement. *)
let test_sec53_mmsim_equals_placerow () =
  List.iter
    (fun name ->
      let options = { Generate.default_options with single_height_only = true } in
      let inst = generate ~options name 0.005 in
      let d = inst.Generate.design in
      let rh = d.Design.chip.Chip.row_height in
      let config = { Config.default with eps = 1e-9; max_iter = 200_000 } in
      let fa = Flow.run ~config d in
      let assignment = Row_assign.assign d in
      let pb = Abacus.legalize_fixed_rows d assignment in
      let pb_legal = (Tetris_alloc.run d pb).Tetris_alloc.placement in
      let da =
        (Metrics.displacement ~row_height:rh ~before:d.Design.global fa.Flow.legal)
          .Metrics.total_manhattan
      and db =
        (Metrics.displacement ~row_height:rh ~before:d.Design.global pb_legal)
          .Metrics.total_manhattan
      in
      if Float.abs (da -. db) > 1e-6 *. Float.max 1.0 db then
        Alcotest.failf "%s: mmsim %.6f vs placerow %.6f" name da db)
    [ "fft_2"; "pci_bridge32_b"; "des_perf_a" ]

let test_abacus_rejects_mixed () =
  let d = (generate "fft_2" 0.005).Generate.design in
  Alcotest.(check bool) "multi-row rejected" true
    (try
       ignore (Abacus.legalize_fixed_rows d (Row_assign.assign d));
       false
     with Invalid_argument _ -> true)

let test_flow_stats_consistency () =
  let inst = generate "fft_2" 0.01 in
  let d = inst.Generate.design in
  let res = Flow.run d in
  Alcotest.(check bool) "timings positive" true (res.Flow.timings.Flow.total_s >= 0.0);
  Alcotest.(check bool) "iterations positive" true (res.Flow.solver.Solver.iterations > 0);
  Alcotest.(check int) "illegal_after_mmsim consistent"
    res.Flow.alloc.Tetris_alloc.illegal_before
    (Flow.illegal_after_mmsim res)

let test_flow_dhpwl_small () =
  (* legalization must not blow up wirelength on a moderate instance *)
  let inst = generate "matrix_mult_b" 0.01 in
  let d = inst.Generate.design in
  let rh = d.Design.chip.Chip.row_height in
  let res = Flow.run d in
  let dh = Hpwl.delta ~row_height:rh d.Design.nets ~before:d.Design.global res.Flow.legal in
  Alcotest.(check bool)
    (Printf.sprintf "dHPWL %.4f%% below 5%%" (100.0 *. dh))
    true
    (dh < 0.05)

let test_mmsim_beats_tetris () =
  (* the headline qualitative claim on a dense instance *)
  let inst = generate "des_perf_1" 0.01 in
  let d = inst.Generate.design in
  let ours = Runner.run Runner.Mmsim d in
  let tetris = Runner.run Runner.Tetris d in
  Alcotest.(check bool)
    (Printf.sprintf "mmsim %.0f <= tetris %.0f"
       ours.Runner.displacement.Metrics.total_manhattan
       tetris.Runner.displacement.Metrics.total_manhattan)
    true
    (ours.Runner.displacement.Metrics.total_manhattan
     <= tetris.Runner.displacement.Metrics.total_manhattan)

let test_config_validation () =
  List.iter
    (fun (what, config) ->
      Alcotest.(check bool) what true
        (match Config.validate config with Error _ -> true | Ok _ -> false))
    [ ("beta out of range", { Config.default with beta = 2.5 });
      ("nan lambda", { Config.default with lambda = Float.nan });
      ("infinite lambda", { Config.default with lambda = Float.infinity });
      ("nan eps", { Config.default with eps = Float.nan });
      ("nan theta", { Config.default with theta = Float.nan }) ];
  Alcotest.(check bool) "default valid" true
    (match Config.validate Config.default with Ok _ -> true | Error _ -> false);
  Alcotest.(check bool) "solver rejects bad config" true
    (try
       let inst = generate "fft_a" 0.002 in
       let m = Model.build inst.Generate.design (Row_assign.assign inst.Generate.design) in
       ignore (Solver.solve ~config:{ Config.default with lambda = -1.0 } m);
       false
     with Invalid_argument _ -> true)

(* property: the flow output is legal for random small instances of every
   benchmark shape and any seed *)
let qc_flow_always_legal =
  QCheck.Test.make ~count:20 ~name:"flow: legal output on random instances"
    QCheck.(pair (int_range 1 10_000) (int_range 0 19))
    (fun (seed, bench_idx) ->
      let name = List.nth Spec.names bench_idx in
      let inst =
        Generate.generate
          ~options:{ Generate.default_options with seed }
          (Spec.scaled 0.002 (Spec.find name))
      in
      let d = inst.Generate.design in
      let res = Flow.run d in
      Legality.is_legal d res.Flow.legal)

let qc_baselines_always_legal =
  QCheck.Test.make ~count:12 ~name:"baselines: legal output on random instances"
    QCheck.(pair (int_range 1 10_000) (int_range 0 3))
    (fun (seed, alg_idx) ->
      let alg = List.nth Runner.all (alg_idx + 1) in
      let inst =
        Generate.generate
          ~options:{ Generate.default_options with seed }
          (Spec.scaled 0.003 (Spec.find "fft_2"))
      in
      (Runner.run alg inst.Generate.design).Runner.legal)

(* MD5 of the [Io.write_placement] output of the legalization flow,
   pinned on the solver as it stood before the ordering-constraint
   products became loops over the variable groups. Any change to the
   solve layer that claims to be output-neutral must keep every placement
   byte-identical. *)
let pinned_placements =
  let o = Generate.default_options in
  let flow ?(options = o) name scale () =
    (Flow.run (generate ~options name scale).Generate.design).Flow.legal
  in
  [ (* many small shards, blockage-split groups and height-3/4 chains *)
    ( "fft_2 0.04 blockages 0.15 tall 0.3", "7b983d29655c898d8ec1e71bc554d883",
      flow ~options:{ o with blockage_fraction = 0.15; tall_cell_fraction = 0.3 }
        "fft_2" 0.04 );
    ("des_perf_1 0.04", "93cc07cd0749c03074b4065afdcaae7a", flow "des_perf_1" 0.04);
    ("matrix_mult_a 0.04", "261bf05f0e59dbb44185f58bc3751b64", flow "matrix_mult_a" 0.04);
    ( "fft_2 0.04 single height", "5e2934d802b0b95767ac0ceb3eeb022c",
      flow ~options:{ o with single_height_only = true } "fft_2" 0.04 );
    ( "fft_2 0.04 fences 2", "8c64f526aae23b1e7994e37c2225de0a",
      fun () ->
        fst
          (Fence.legalize
             (generate ~options:{ o with fence_count = 2 } "fft_2" 0.04)
               .Generate.design) ) ]

let test_pinned_placement (label, digest, legalize) () =
  let path = Filename.temp_file "pinned" ".pl.mclh" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_placement ~path (legalize ());
      Alcotest.(check string) label digest (Digest.to_hex (Digest.file path)))

let () =
  Alcotest.run "flow"
    [ ( "mmsim flow",
        [ Alcotest.test_case "legal across suite" `Slow test_flow_legal_across_suite;
          Alcotest.test_case "order preserved" `Quick test_flow_preserves_order;
          Alcotest.test_case "zero noise: perfect preservation" `Quick
            test_zero_noise_perfect_preservation;
          Alcotest.test_case "beats reference packing" `Quick
            test_flow_beats_reference_displacement;
          Alcotest.test_case "stats consistency" `Quick test_flow_stats_consistency;
          Alcotest.test_case "dHPWL small" `Quick test_flow_dhpwl_small ] );
      ( "baselines",
        [ Alcotest.test_case "all legal" `Quick test_baselines_legal;
          Alcotest.test_case "runner names" `Quick test_runner_names;
          Alcotest.test_case "abacus rejects mixed" `Quick test_abacus_rejects_mixed;
          Alcotest.test_case "mmsim beats tetris" `Quick test_mmsim_beats_tetris ] );
      ( "section 5.3",
        [ Alcotest.test_case "mmsim = placerow" `Slow test_sec53_mmsim_equals_placerow ] );
      ("config", [ Alcotest.test_case "validation" `Quick test_config_validation ]);
      ( "pinned md5",
        List.map
          (fun ((label, _, _) as pin) ->
            Alcotest.test_case label `Quick (test_pinned_placement pin))
          pinned_placements );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qc_flow_always_legal; qc_baselines_always_legal ] ) ]
