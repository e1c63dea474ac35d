(* Tests for blockage (fixed obstacle) support across the stack: geometry,
   legality, row segments, the segment-shifted model, and all legalizers. *)

open Mclh_linalg
open Mclh_circuit
open Mclh_benchgen
open Mclh_core

let cell ?rail ~id ~w ~h () = Cell.make ~id ~width:w ~height:h ?bottom_rail:rail ()

let test_blockage_geometry () =
  let b = Blockage.make ~row:2 ~height:2 ~x:10 ~width:5 in
  Alcotest.(check int) "area" 10 (Blockage.area b);
  Alcotest.(check bool) "covers row" true (Blockage.covers_row b 3);
  Alcotest.(check bool) "not row 4" false (Blockage.covers_row b 4);
  Alcotest.(check bool) "overlap" true
    (Blockage.overlaps_span b ~row:3 ~height:1 ~x:12.0 ~width:4);
  Alcotest.(check bool) "touch is no overlap" false
    (Blockage.overlaps_span b ~row:3 ~height:1 ~x:15.0 ~width:4);
  Alcotest.(check bool) "different rows" false
    (Blockage.overlaps_span b ~row:0 ~height:2 ~x:12.0 ~width:4);
  Alcotest.(check bool) "validation" true
    (try
       ignore (Blockage.make ~row:0 ~height:0 ~x:0 ~width:1);
       false
     with Invalid_argument _ -> true)

let blocked_design () =
  (* 4 rows x 30 sites, one blockage in the middle of rows 1-2 *)
  let chip = Chip.make ~num_rows:4 ~num_sites:30 () in
  let blockages = [| Blockage.make ~row:1 ~height:2 ~x:12 ~width:6 |] in
  let cells =
    [| cell ~id:0 ~w:4 ~h:1 ();
       cell ~id:1 ~w:4 ~h:1 ();
       cell ~rail:Rail.Vdd ~id:2 ~w:3 ~h:2 () |]
  in
  Design.make ~blockages ~name:"blocked" ~chip ~cells
    ~global:(Placement.make ~xs:[| 10.0; 16.0; 13.0 |] ~ys:[| 1.0; 1.0; 1.0 |])
    ~nets:(Netlist.empty ~num_cells:3)
    ()

let test_legality_blocked () =
  let d = blocked_design () in
  (* cell 0 placed inside the blockage *)
  let pl = Placement.make ~xs:[| 13.0; 20.0; 1.0 |] ~ys:[| 1.0; 1.0; 1.0 |] in
  let v = Legality.check d pl in
  Alcotest.(check bool) "blocked violation" true
    (List.exists (function Legality.Blocked (0, 0) -> true | _ -> false) v);
  (* legal spots on both sides of the blockage *)
  let ok = Placement.make ~xs:[| 2.0; 20.0; 25.0 |] ~ys:[| 1.0; 1.0; 1.0 |] in
  Alcotest.(check bool) "clear placement legal" true (Legality.is_legal d ok)

let test_design_capacity () =
  let d = blocked_design () in
  Alcotest.(check int) "free capacity" (120 - 12) (Design.free_capacity d)

let test_segments () =
  let d = blocked_design () in
  let segs = Segments.compute d in
  Alcotest.(check bool) "has blockages" true (Segments.has_blockages segs);
  (match Segments.row_segments segs 1 with
  | [ a; b ] ->
    Alcotest.(check int) "left start" 0 a.Segments.start;
    Alcotest.(check int) "left stop" 12 a.Segments.stop;
    Alcotest.(check int) "right start" 18 b.Segments.start;
    Alcotest.(check int) "right stop" 30 b.Segments.stop
  | l -> Alcotest.failf "expected 2 segments in row 1, got %d" (List.length l));
  (match Segments.row_segments segs 0 with
  | [ a ] ->
    Alcotest.(check int) "full row" 0 a.Segments.start;
    Alcotest.(check int) "full row stop" 30 a.Segments.stop
  | l -> Alcotest.failf "expected 1 segment in row 0, got %d" (List.length l));
  (* locate: wide target near the blockage goes to the side that fits *)
  Alcotest.(check int) "left side" 0 (Segments.locate segs ~row:1 ~x:11.0 ~width:4);
  Alcotest.(check int) "right side" 18
    (Segments.locate segs ~row:1 ~x:16.0 ~width:4)

(* equal distances go to the span with the smaller start, and a row
   where no span fits falls back to the nearest span of any width *)
let test_locate_ties_and_spill () =
  let chip = Chip.make ~num_rows:2 ~num_sites:30 () in
  let blockages =
    [| Blockage.make ~row:0 ~height:1 ~x:10 ~width:10;
       Blockage.make ~row:1 ~height:1 ~x:3 ~width:24 |]
  in
  let d =
    Design.make ~blockages ~name:"ties" ~chip ~cells:[||]
      ~global:(Placement.create 0) ~nets:(Netlist.empty ~num_cells:0) ()
  in
  let segs = Segments.compute d in
  (* row 0: [0, 10) and [20, 30); x = 13 is 7 from either for width 4 *)
  Alcotest.(check int) "tie to the first span" 0
    (Segments.locate segs ~row:0 ~x:13.0 ~width:4);
  Alcotest.(check int) "strictly nearer second span" 20
    (Segments.locate segs ~row:0 ~x:13.5 ~width:4);
  (* row 1: [0, 3) and [27, 30), neither hosts width 5 *)
  Alcotest.(check int) "nothing fits: nearest span" 27
    (Segments.locate segs ~row:1 ~x:20.0 ~width:5);
  Alcotest.(check int) "nothing fits: tie to the first" 0
    (Segments.locate segs ~row:1 ~x:13.5 ~width:5)

(* a scan over the row's span array: no closure, option, tuple or boxed
   float per call *)
let test_locate_allocates_nothing () =
  let segs = Segments.compute (blocked_design ()) in
  let x = 16.0 and acc = ref 0 in
  let minor0 = Gc.minor_words () in
  for k = 0 to 999 do
    acc := !acc + Segments.locate segs ~row:(k land 3) ~x ~width:(1 + (k land 7))
  done;
  let words = Gc.minor_words () -. minor0 in
  Alcotest.(check bool) "some span found" true (!acc > 0);
  Alcotest.(check (float 0.0)) "minor words over 1000 calls" 0.0 words

(* the flat span arrays and the allocation-free scan against the list
   oracle: same spans per row, same chosen span on random queries,
   including integer x (ties between spans) and widths no span fits *)
let qc_locate_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"segments: locate = list oracle"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 14))
    (fun (seed, nblk) ->
      let rng = Rng.create seed in
      let num_rows = 1 + Rng.int rng 6 and num_sites = 8 + Rng.int rng 60 in
      let chip = Chip.make ~num_rows ~num_sites () in
      let blockages =
        Array.init nblk (fun _ ->
            let row = Rng.int rng num_rows and x = Rng.int rng num_sites in
            Blockage.make ~row
              ~height:(1 + Rng.int rng (num_rows - row))
              ~x
              ~width:(1 + Rng.int rng (min 12 (num_sites - x))))
      in
      let d =
        Design.make ~blockages ~name:"qc" ~chip ~cells:[||]
          ~global:(Placement.create 0) ~nets:(Netlist.empty ~num_cells:0) ()
      in
      let segs = Segments.compute d and oracle = Segments_ref.compute d in
      let same_spans r =
        List.map (fun (s : Segments.span) -> (s.start, s.stop))
          (Segments.row_segments segs r)
        = List.map
            (fun (s : Segments_ref.span) -> (s.start, s.stop))
            (Segments_ref.row_segments oracle r)
      in
      let same_pick _ =
        let row = Rng.int rng num_rows in
        let x =
          if Rng.int rng 2 = 0 then float_of_int (Rng.int rng (num_sites + 20) - 10)
          else Rng.float rng (float_of_int (num_sites + 20)) -. 10.0
        in
        let width = 1 + Rng.int rng (num_sites + 4) in
        Segments.locate segs ~row ~x ~width
        = (match Segments_ref.locate oracle ~row ~x ~width with
          | Some s -> s.Segments_ref.start
          | None -> -1)
      in
      List.for_all same_spans (List.init num_rows Fun.id)
      && List.for_all same_pick (List.init 40 Fun.id))

let test_model_shifts () =
  let d = blocked_design () in
  let m = Model.build d (Row_assign.assign d) in
  (* cell 1 (gx 16, width 4) is pushed to the right segment: shift 18;
     cell 0 (gx 10) stays in the left segment: shift 0 *)
  Alcotest.(check (float 0.0)) "cell0 shift" 0.0 m.Model.shift.(m.Model.first_var.(0));
  Alcotest.(check (float 0.0)) "cell1 shift" 18.0 m.Model.shift.(m.Model.first_var.(1));
  (* cells 0 and 1 are in different segments: no ordering constraint links
     them directly; cell 2 (double, gx 13, w 3) picks a side *)
  let legal = Flow.legalize d in
  Alcotest.(check bool) "flow legal with blockage" true (Legality.is_legal d legal)

let test_no_blockage_shifts_zero () =
  let inst = Generate.generate (Spec.scaled 0.003 (Spec.find "fft_2")) in
  let d = inst.Generate.design in
  let m = Model.build d (Row_assign.assign d) in
  Alcotest.(check (float 0.0)) "all shifts zero" 0.0 (Vec.norm_inf m.Model.shift)

let gen_blocked name =
  Generate.generate
    ~options:{ Generate.default_options with blockage_fraction = 0.15 }
    (Spec.scaled 0.008 (Spec.find name))

let test_generator_blockages () =
  let inst = gen_blocked "fft_2" in
  let d = inst.Generate.design in
  Alcotest.(check bool) "blockages present" true (Array.length d.Design.blockages > 0);
  Alcotest.(check bool) "reference legal" true
    (Legality.is_legal d inst.Generate.reference);
  (* free density close to the spec despite the blocked area *)
  Alcotest.(check bool)
    (Printf.sprintf "density %.3f near 0.50" (Design.density d))
    true
    (Float.abs (Design.density d -. 0.50) < 0.12)

let test_all_legalizers_with_blockages () =
  let inst = gen_blocked "fft_1" in
  let d = inst.Generate.design in
  List.iter
    (fun alg ->
      let r = Runner.run alg d in
      Alcotest.(check bool) (Runner.name alg ^ " legal") true r.Runner.legal)
    Runner.all

let test_solver_oracle_with_blockages () =
  (* the segment-shifted QP must still match the dense oracle *)
  let inst =
    Generate.generate
      ~options:{ Generate.default_options with blockage_fraction = 0.2 }
      (Spec.scaled 0.0008 (Spec.find "fft_2"))
  in
  let d = inst.Generate.design in
  let m = Model.build d (Row_assign.assign d) in
  let config = { Config.default with eps = 1e-10; max_iter = 500_000 } in
  let res = Solver.solve ~config m in
  Alcotest.(check bool) "converged" true res.Solver.converged;
  let qp = Model.to_qp m ~lambda:config.Config.lambda in
  let oracle = Mclh_qp.Active_set.solve ~x0:(Model.packed_start m) qp in
  Alcotest.(check bool) "oracle converged" true oracle.Mclh_qp.Active_set.converged;
  let o1 = Mclh_qp.Qp.objective qp res.Solver.x in
  let o2 = Mclh_qp.Qp.objective qp oracle.Mclh_qp.Active_set.x in
  if Float.abs (o1 -. o2) > 1e-4 *. Float.max 1.0 (Float.abs o2) then
    Alcotest.failf "objective %.8f vs oracle %.8f" o1 o2

let test_io_roundtrip_blockages () =
  let inst = gen_blocked "fft_a" in
  let d = inst.Generate.design in
  let path = Filename.temp_file "mclh" ".design" in
  Io.write_design ~path d;
  let d2 = Io.read_design ~path in
  Sys.remove path;
  Alcotest.(check int) "blockage count"
    (Array.length d.Design.blockages)
    (Array.length d2.Design.blockages);
  Alcotest.(check bool) "same placement" true
    (Placement.equal d.Design.global d2.Design.global);
  Alcotest.(check int) "same cells" (Design.num_cells d) (Design.num_cells d2)

let test_refine_with_blockages () =
  let inst = gen_blocked "fft_2" in
  let d = inst.Generate.design in
  let legal = Flow.legalize d in
  let refined, stats = Mclh_refine.Refine.run d legal in
  Alcotest.(check bool) "legal" true (Legality.is_legal d refined);
  Alcotest.(check bool) "not worse" true
    (stats.Mclh_refine.Refine.hpwl_after
     <= stats.Mclh_refine.Refine.hpwl_before +. 1e-9)

let test_svg_draws_blockages () =
  let d = blocked_design () in
  let pl = Placement.make ~xs:[| 2.0; 20.0; 25.0 |] ~ys:[| 1.0; 1.0; 1.0 |] in
  let svg = Svg.render d pl in
  let contains needle =
    let nl = String.length needle and sl = String.length svg in
    let rec go i = i + nl <= sl && (String.sub svg i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "blockage color present" true (contains "#555555")

let qc_flow_legal_with_blockages =
  QCheck.Test.make ~count:15
    ~name:"flow: legal output with random blockages"
    QCheck.(pair (int_range 1 10_000) (int_range 0 19))
    (fun (seed, bench_idx) ->
      let name = List.nth Spec.names bench_idx in
      let inst =
        Generate.generate
          ~options:
            { Generate.default_options with seed; blockage_fraction = 0.1 }
          (Spec.scaled 0.003 (Spec.find name))
      in
      let d = inst.Generate.design in
      Legality.is_legal d (Flow.legalize d))

let () =
  Alcotest.run "blockage"
    [ ( "geometry",
        [ Alcotest.test_case "basics" `Quick test_blockage_geometry;
          Alcotest.test_case "legality" `Quick test_legality_blocked;
          Alcotest.test_case "capacity" `Quick test_design_capacity ] );
      ( "segments",
        [ Alcotest.test_case "compute/locate" `Quick test_segments;
          Alcotest.test_case "locate ties and spill" `Quick
            test_locate_ties_and_spill;
          Alcotest.test_case "locate allocates nothing" `Quick
            test_locate_allocates_nothing;
          Alcotest.test_case "model shifts" `Quick test_model_shifts;
          Alcotest.test_case "no blockages = no shifts" `Quick
            test_no_blockage_shifts_zero ] );
      ( "end to end",
        [ Alcotest.test_case "generator" `Quick test_generator_blockages;
          Alcotest.test_case "all legalizers" `Quick test_all_legalizers_with_blockages;
          Alcotest.test_case "solver vs oracle" `Slow test_solver_oracle_with_blockages;
          Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip_blockages;
          Alcotest.test_case "refine" `Quick test_refine_with_blockages;
          Alcotest.test_case "svg" `Quick test_svg_draws_blockages ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qc_flow_legal_with_blockages; qc_locate_matches_oracle ] ) ]
