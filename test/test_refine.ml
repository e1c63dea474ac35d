(* Tests for the post-legalization detailed-placement refinement. *)

open Mclh_circuit
open Mclh_benchgen
open Mclh_core
open Mclh_refine

let instance ?(options = Generate.default_options) name scale =
  Generate.generate ~options (Spec.scaled scale (Spec.find name))

let legal_flow d = Flow.legalize d

let test_skips_illegal_input () =
  let inst = instance "fft_2" 0.004 in
  let d = inst.Generate.design in
  (* the raw global placement is not legal: the offending cells must be
     frozen (reported in [skipped_cells]) rather than the whole run
     aborting, the frozen cells must not move, and the rest must still
     come out no worse *)
  let refined, stats = Refine.run d d.Design.global in
  Alcotest.(check bool) "skipped some cells" true (stats.Refine.skipped_cells > 0);
  let illegal = Legality.illegal_cells d d.Design.global in
  Alcotest.(check int) "skipped = illegal count"
    (List.length illegal) stats.Refine.skipped_cells;
  List.iter
    (fun i ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "cell %d x frozen" i)
        d.Design.global.Placement.xs.(i)
        refined.Placement.xs.(i);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "cell %d y frozen" i)
        d.Design.global.Placement.ys.(i)
        refined.Placement.ys.(i))
    illegal;
  Alcotest.(check bool) "not worse" true
    (stats.Refine.hpwl_after <= stats.Refine.hpwl_before +. 1e-9)

let test_preserves_legality () =
  List.iter
    (fun name ->
      let inst = instance name 0.008 in
      let d = inst.Generate.design in
      let legal = legal_flow d in
      let refined, _ = Refine.run d legal in
      Alcotest.(check bool) (name ^ " still legal") true
        (Legality.is_legal d refined))
    [ "fft_2"; "des_perf_1"; "pci_bridge32_b" ]

let test_never_worse () =
  let inst = instance "fft_1" 0.01 in
  let d = inst.Generate.design in
  let legal = legal_flow d in
  let _, stats = Refine.run d legal in
  Alcotest.(check bool) "hpwl not increased" true
    (stats.Refine.hpwl_after <= stats.Refine.hpwl_before +. 1e-9);
  Alcotest.(check bool) "improvement in [0,1)" true
    (Refine.improvement stats >= 0.0 && Refine.improvement stats < 1.0)

let test_reorder_untangles_crossing_nets () =
  (* one fully packed row 0 1 2 3 with crossing nets {0,2} and {1,3}: a
     global move finds no free span but the cell's own, so only the
     reorder of the window (0 1 2) into (0 2 1) can shorten the nets *)
  let chip = Chip.make ~num_rows:1 ~num_sites:8 () in
  let cells = Array.init 4 (fun id -> Cell.make ~id ~width:2 ~height:1 ()) in
  let pin cell = { Netlist.cell; dx = 1.0; dy = 0.5 } in
  let nets = Netlist.make ~num_cells:4 [ [| pin 0; pin 2 |]; [| pin 1; pin 3 |] ] in
  let pl () = Placement.make ~xs:[| 0.0; 2.0; 4.0; 6.0 |] ~ys:(Array.make 4 0.0) in
  let d = Design.make ~name:"crossing" ~chip ~cells ~global:(pl ()) ~nets () in
  let refined, stats = Refine.run d (pl ()) in
  Alcotest.(check bool) "legal" true (Legality.is_legal d refined);
  Alcotest.(check int) "no global moves" 0 stats.Refine.moves;
  Alcotest.(check bool)
    (Printf.sprintf "reorders >= 1 (%d)" stats.Refine.reorders)
    true (stats.Refine.reorders >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "hpwl fell (%.1f -> %.1f)" stats.Refine.hpwl_before
       stats.Refine.hpwl_after)
    true
    (stats.Refine.hpwl_after < stats.Refine.hpwl_before)

(* the bits of the refined fft_2 placement, so that a refactor of the
   moves cannot change the output unnoticed *)
let test_pinned_md5 () =
  let d = (instance "fft_2" 0.008).Generate.design in
  let refined, _ = Refine.run d (legal_flow d) in
  Alcotest.(check bool) "legal" true (Legality.is_legal d refined);
  let path = Filename.temp_file "refined" ".pl.mclh" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_placement ~path refined;
      Alcotest.(check string) "fft_2 0.008" "562aa6b0edcf57495f57d50b9a46c91d"
        (Digest.to_hex (Digest.file path)))

let test_tall_cells_refine () =
  let options =
    { Generate.default_options with tall_cell_fraction = 0.5 }
  in
  let inst = instance ~options "fft_2" 0.008 in
  let d = inst.Generate.design in
  let legal = legal_flow d in
  let refined, stats = Refine.run d legal in
  Alcotest.(check bool) "legal with tall cells" true (Legality.is_legal d refined);
  Alcotest.(check bool) "not worse" true
    (stats.Refine.hpwl_after <= stats.Refine.hpwl_before +. 1e-9)

let test_no_nets_noop () =
  (* without nets there is nothing to improve; the placement is unchanged *)
  let chip = Chip.make ~num_rows:4 ~num_sites:20 () in
  let cells = Array.init 3 (fun id -> Cell.make ~id ~width:3 ~height:1 ()) in
  let d =
    Design.make ~name:"no-nets" ~chip ~cells
      ~global:(Placement.make ~xs:[| 0.0; 5.0; 10.0 |] ~ys:[| 0.0; 1.0; 2.0 |])
      ~nets:(Netlist.empty ~num_cells:3) ()
  in
  let legal = Placement.make ~xs:[| 0.0; 5.0; 10.0 |] ~ys:[| 0.0; 1.0; 2.0 |] in
  let refined, stats = Refine.run d legal in
  Alcotest.(check bool) "unchanged" true (Placement.equal refined legal);
  Alcotest.(check int) "no moves" 0 stats.Refine.moves;
  Alcotest.(check (float 0.0)) "hpwl 0" 0.0 stats.Refine.hpwl_after

let test_pulls_connected_pair_together () =
  (* two connected cells far apart in one row with free space between:
     refinement must shrink the net *)
  let chip = Chip.make ~num_rows:2 ~num_sites:60 () in
  let cells = Array.init 2 (fun id -> Cell.make ~id ~width:3 ~height:1 ()) in
  let nets =
    Netlist.make ~num_cells:2
      [ [| { Netlist.cell = 0; dx = 1.5; dy = 0.5 };
           { Netlist.cell = 1; dx = 1.5; dy = 0.5 } |] ]
  in
  let pl () = Placement.make ~xs:[| 0.0; 50.0 |] ~ys:[| 0.0; 0.0 |] in
  let d =
    Design.make ~name:"pair" ~chip ~cells ~global:(pl ()) ~nets ()
  in
  let refined, stats = Refine.run d (pl ()) in
  Alcotest.(check bool) "legal" true (Legality.is_legal d refined);
  Alcotest.(check bool)
    (Printf.sprintf "hpwl shrank (%.1f -> %.1f)" stats.Refine.hpwl_before
       stats.Refine.hpwl_after)
    true
    (stats.Refine.hpwl_after < 10.0)

let test_deterministic () =
  let inst = instance "fft_a" 0.01 in
  let d = inst.Generate.design in
  let legal = legal_flow d in
  let r1, s1 = Refine.run d legal in
  let r2, s2 = Refine.run d legal in
  Alcotest.(check bool) "same placement" true (Placement.equal r1 r2);
  Alcotest.(check (float 0.0)) "same hpwl" s1.Refine.hpwl_after s2.Refine.hpwl_after

let qc_refine_legal_and_monotone =
  QCheck.Test.make ~count:15
    ~name:"refine: legal and never worse on random instances"
    QCheck.(pair (int_range 1 10_000) (int_range 0 19))
    (fun (seed, bench_idx) ->
      let name = List.nth Spec.names bench_idx in
      let inst =
        Generate.generate
          ~options:{ Generate.default_options with seed }
          (Spec.scaled 0.003 (Spec.find name))
      in
      let d = inst.Generate.design in
      let legal = Flow.legalize d in
      let refined, stats = Refine.run d legal in
      Legality.is_legal d refined
      && stats.Refine.hpwl_after <= stats.Refine.hpwl_before +. 1e-9)

let () =
  Alcotest.run "refine"
    [ ( "invariants",
        [ Alcotest.test_case "skips illegal input" `Quick test_skips_illegal_input;
          Alcotest.test_case "preserves legality" `Quick test_preserves_legality;
          Alcotest.test_case "never worse" `Quick test_never_worse;
          Alcotest.test_case "reorder untangles crossing nets" `Quick
            test_reorder_untangles_crossing_nets;
          Alcotest.test_case "pinned md5 fft_2 0.008" `Quick test_pinned_md5;
          Alcotest.test_case "tall cells" `Quick test_tall_cells_refine ] );
      ( "behaviour",
        [ Alcotest.test_case "no nets no-op" `Quick test_no_nets_noop;
          Alcotest.test_case "pulls pair together" `Quick test_pulls_connected_pair_together;
          Alcotest.test_case "deterministic" `Quick test_deterministic ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qc_refine_legal_and_monotone ] ) ]
