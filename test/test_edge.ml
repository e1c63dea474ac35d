(* Edge cases across the stack: degenerate designs, extreme geometry, and
   failure-injection paths that the main suites do not reach. *)

open Mclh_linalg
open Mclh_circuit
open Mclh_core

let cell ?rail ?name ~id ~w ~h () =
  Cell.make ~id ?name ~width:w ~height:h ?bottom_rail:rail ()

let design ?blockages ~chip ~cells ~xs ~ys () =
  Design.make ?blockages ~name:"edge" ~chip ~cells
    ~global:(Placement.make ~xs ~ys)
    ~nets:(Netlist.empty ~num_cells:(Array.length cells))
    ()

let flow_is_legal d =
  let legal = Flow.legalize d in
  Legality.is_legal d legal

(* ---------- degenerate designs ---------- *)

let test_single_cell () =
  let chip = Chip.make ~num_rows:2 ~num_sites:10 () in
  let d = design ~chip ~cells:[| cell ~id:0 ~w:3 ~h:1 () |] ~xs:[| 4.2 |] ~ys:[| 0.6 |] () in
  Alcotest.(check bool) "legal" true (flow_is_legal d);
  let legal = Flow.legalize d in
  (* a lone cell just snaps to the nearest site and row *)
  Alcotest.(check (float 0.0)) "x snapped" 4.0 legal.Placement.xs.(0);
  Alcotest.(check (float 0.0)) "y snapped" 1.0 legal.Placement.ys.(0)

let test_single_row_chip () =
  let chip = Chip.make ~num_rows:1 ~num_sites:30 () in
  let cells = Array.init 5 (fun id -> cell ~id ~w:4 ~h:1 ()) in
  let xs = [| 0.0; 3.0; 6.0; 9.0; 12.0 |] in
  let d = design ~chip ~cells ~xs ~ys:(Array.make 5 0.0) () in
  Alcotest.(check bool) "legal" true (flow_is_legal d)

let test_cell_fills_row_exactly () =
  let chip = Chip.make ~num_rows:2 ~num_sites:8 () in
  let d =
    design ~chip
      ~cells:[| cell ~id:0 ~w:8 ~h:1 (); cell ~id:1 ~w:8 ~h:1 () |]
      ~xs:[| 0.4; 0.0 |] ~ys:[| 0.0; 1.2 |] ()
  in
  Alcotest.(check bool) "legal" true (flow_is_legal d)

let test_chip_exactly_full () =
  (* 100% density: every site used; only one legal configuration per row *)
  let chip = Chip.make ~num_rows:2 ~num_sites:6 () in
  let cells =
    [| cell ~id:0 ~w:3 ~h:1 (); cell ~id:1 ~w:3 ~h:1 ();
       cell ~id:2 ~w:3 ~h:1 (); cell ~id:3 ~w:3 ~h:1 () |]
  in
  let d =
    design ~chip ~cells ~xs:[| 0.2; 3.1; 0.0; 2.8 |] ~ys:[| 0.0; 0.0; 1.0; 1.0 |] ()
  in
  Alcotest.(check bool) "legal at 100% density" true (flow_is_legal d)

let test_double_only_design () =
  let chip = Chip.make ~num_rows:4 ~num_sites:20 () in
  let cells =
    [| cell ~rail:Rail.Vss ~id:0 ~w:4 ~h:2 ();
       cell ~rail:Rail.Vdd ~id:1 ~w:4 ~h:2 ();
       cell ~rail:Rail.Vss ~id:2 ~w:4 ~h:2 () |]
  in
  let d =
    design ~chip ~cells ~xs:[| 1.0; 6.0; 11.0 |] ~ys:[| 0.3; 0.7; 1.9 |] ()
  in
  Alcotest.(check bool) "legal" true (flow_is_legal d)

let test_chip_sized_cell () =
  (* one cell as tall as the whole chip *)
  let chip = Chip.make ~num_rows:3 ~num_sites:10 () in
  let d =
    design ~chip ~cells:[| cell ~id:0 ~w:4 ~h:3 () |] ~xs:[| 2.5 |] ~ys:[| 0.4 |] ()
  in
  Alcotest.(check bool) "legal" true (flow_is_legal d)

let test_gp_positions_outside_chip () =
  (* global positions beyond the boundaries must still legalize (clamped) *)
  let chip = Chip.make ~num_rows:2 ~num_sites:12 () in
  let cells = [| cell ~id:0 ~w:3 ~h:1 (); cell ~id:1 ~w:3 ~h:1 () |] in
  let d = design ~chip ~cells ~xs:[| -5.0; 100.0 |] ~ys:[| -2.0; 9.0 |] () in
  Alcotest.(check bool) "legal" true (flow_is_legal d)

let test_identical_positions () =
  (* many cells stacked on the exact same global spot *)
  let chip = Chip.make ~num_rows:2 ~num_sites:40 () in
  let cells = Array.init 8 (fun id -> cell ~id ~w:4 ~h:1 ()) in
  let d =
    design ~chip ~cells ~xs:(Array.make 8 10.0) ~ys:(Array.make 8 0.5) ()
  in
  Alcotest.(check bool) "legal" true (flow_is_legal d);
  (* determinism under ties *)
  let l1 = Flow.legalize d and l2 = Flow.legalize d in
  Alcotest.(check bool) "deterministic" true (Placement.equal l1 l2)

(* ---------- blockage edge cases ---------- *)

let test_row_fully_blocked () =
  let chip = Chip.make ~num_rows:3 ~num_sites:10 () in
  let blockages = [| Blockage.make ~row:1 ~height:1 ~x:0 ~width:10 |] in
  let cells = [| cell ~id:0 ~w:3 ~h:1 (); cell ~id:1 ~w:3 ~h:1 () |] in
  (* both cells want the blocked row *)
  let d = design ~blockages ~chip ~cells ~xs:[| 1.0; 5.0 |] ~ys:[| 1.0; 1.2 |] () in
  Alcotest.(check bool) "legal despite blocked home row" true (flow_is_legal d)

let test_blockage_splits_row_tightly () =
  (* segments of width 3 on each side; cells exactly fill them *)
  let chip = Chip.make ~num_rows:1 ~num_sites:10 () in
  let blockages = [| Blockage.make ~row:0 ~height:1 ~x:3 ~width:4 |] in
  let cells = [| cell ~id:0 ~w:3 ~h:1 (); cell ~id:1 ~w:3 ~h:1 () |] in
  let d = design ~blockages ~chip ~cells ~xs:[| 4.0; 5.0 |] ~ys:[| 0.0; 0.0 |] () in
  let legal = Flow.legalize d in
  Alcotest.(check bool) "legal" true (Legality.is_legal d legal);
  (* one cell per side *)
  let left = Float.min legal.Placement.xs.(0) legal.Placement.xs.(1) in
  let right = Float.max legal.Placement.xs.(0) legal.Placement.xs.(1) in
  Alcotest.(check (float 0.0)) "left segment" 0.0 left;
  Alcotest.(check (float 0.0)) "right segment" 7.0 right

(* ---------- solver / numeric edges ---------- *)

let test_extreme_lambda () =
  let chip = Chip.make ~num_rows:2 ~num_sites:30 () in
  let cells =
    [| cell ~rail:Rail.Vss ~id:0 ~w:4 ~h:2 (); cell ~id:1 ~w:4 ~h:1 () |]
  in
  let d = design ~chip ~cells ~xs:[| 3.0; 4.0 |] ~ys:[| 0.0; 0.0 |] () in
  List.iter
    (fun lambda ->
      let config = { Config.default with lambda } in
      let legal = Flow.legalize ~config d in
      Alcotest.(check bool)
        (Printf.sprintf "legal at lambda %g" lambda)
        true (Legality.is_legal d legal))
    [ 1e-3; 1.0; 1e6 ]

let test_empty_constraint_set () =
  (* one cell per row: m = 0 and the bottom MMSIM block is empty *)
  let chip = Chip.make ~num_rows:3 ~num_sites:10 () in
  let cells = Array.init 3 (fun id -> cell ~id ~w:3 ~h:1 ()) in
  let d =
    design ~chip ~cells ~xs:[| 1.0; 2.0; 3.0 |] ~ys:[| 0.0; 1.0; 2.0 |] ()
  in
  let m = Model.build d (Row_assign.assign d) in
  Alcotest.(check int) "no constraints" 0 (Model.num_constraints m);
  let res = Solver.solve m in
  Alcotest.(check bool) "converged" true res.Solver.converged;
  Alcotest.(check bool) "x at targets" true
    (Vec.equal ~eps:1e-6 res.Solver.x (Vec.of_list [ 1.0; 2.0; 3.0 ]))

let test_solver_zero_iteration_budget_rejected () =
  let chip = Chip.make ~num_rows:1 ~num_sites:10 () in
  let d = design ~chip ~cells:[| cell ~id:0 ~w:2 ~h:1 () |] ~xs:[| 1.0 |] ~ys:[| 0.0 |] () in
  let m = Model.build d (Row_assign.assign d) in
  Alcotest.(check bool) "max_iter 0 rejected" true
    (try
       ignore (Solver.solve ~config:{ Config.default with max_iter = 0 } m);
       false
     with Invalid_argument _ -> true)

let test_warm_start_equals_plain_fixed_point () =
  (* one LCP fixed point, whatever the start: the PlaceRow warm start,
     the paper's start and an adversarial vector must all reach the same
     snapped placement on the flow's model *)
  let inst = Mclh_benchgen.Generate.generate
      (Mclh_benchgen.Spec.scaled 0.005 (Mclh_benchgen.Spec.find "fft_1")) in
  let d = inst.Mclh_benchgen.Generate.design in
  let model = Model.build d (Row_assign.assign d) in
  let config = { Config.default with eps = 1e-9; max_iter = 500_000 } in
  let snapped ?s0 () =
    let res = Solver.solve ~config ?s0 model in
    Alcotest.(check bool) "converged" true res.Solver.converged;
    (Tetris_alloc.run d (Model.placement_of model res.Solver.x))
      .Tetris_alloc.placement
  in
  let warm = snapped () in
  let dim = model.Model.nvars + Model.num_constraints model in
  List.iter
    (fun (start, s0) ->
      Alcotest.(check bool) (start ^ ": same legal placement") true
        (Placement.equal warm (snapped ~s0 ())))
    [ ("paper's start", Warm_start.plain_start model);
      ("adversarial start",
       Vec.init dim (fun i -> (0.5 *. float_of_int (i mod 7)) -. 1.0)) ]

(* ---------- allocator edges ---------- *)

let test_tetris_alloc_requires_admitting_rows () =
  (* a double whose input row has the wrong parity is repaired *)
  let chip = Chip.make ~num_rows:4 ~num_sites:12 () in
  let cells = [| cell ~rail:Rail.Vss ~id:0 ~w:3 ~h:2 () |] in
  let d = design ~chip ~cells ~xs:[| 2.0 |] ~ys:[| 0.0 |] () in
  (* hand the allocator a rail-mismatched row (row 1 bottom is VDD) *)
  let bad = Placement.make ~xs:[| 2.0 |] ~ys:[| 1.0 |] in
  let out = Tetris_alloc.run d bad in
  Alcotest.(check bool) "repaired" true (Legality.is_legal d out.Tetris_alloc.placement);
  Alcotest.(check int) "was illegal" 1 out.Tetris_alloc.illegal_before

let test_occupancy_full_row_no_spot () =
  let chip = Chip.make ~num_rows:1 ~num_sites:6 () in
  let occ = Occupancy.create chip in
  Occupancy.occupy occ ~row:0 ~height:1 ~x:0 ~width:6;
  Alcotest.(check bool) "no spot anywhere" true
    (Occupancy.find_spot occ (cell ~id:0 ~w:2 ~h:1 ()) ~row0:0 ~x0:3 = None)

let test_order_preservation_empty () =
  let chip = Chip.make ~num_rows:2 ~num_sites:10 () in
  let d = design ~chip ~cells:[||] ~xs:[||] ~ys:[||] () in
  Alcotest.(check (float 0.0)) "vacuous preservation" 1.0
    (Order.preservation d (Placement.create 0))

let () =
  Alcotest.run "edge"
    [ ( "degenerate designs",
        [ Alcotest.test_case "single cell" `Quick test_single_cell;
          Alcotest.test_case "single-row chip" `Quick test_single_row_chip;
          Alcotest.test_case "cell fills row" `Quick test_cell_fills_row_exactly;
          Alcotest.test_case "100% density" `Quick test_chip_exactly_full;
          Alcotest.test_case "doubles only" `Quick test_double_only_design;
          Alcotest.test_case "chip-sized cell" `Quick test_chip_sized_cell;
          Alcotest.test_case "GP outside chip" `Quick test_gp_positions_outside_chip;
          Alcotest.test_case "identical positions" `Quick test_identical_positions ] );
      ( "blockage edges",
        [ Alcotest.test_case "fully blocked row" `Quick test_row_fully_blocked;
          Alcotest.test_case "tight segments" `Quick test_blockage_splits_row_tightly ] );
      ( "solver edges",
        [ Alcotest.test_case "extreme lambda" `Quick test_extreme_lambda;
          Alcotest.test_case "no constraints" `Quick test_empty_constraint_set;
          Alcotest.test_case "max_iter 0" `Quick test_solver_zero_iteration_budget_rejected;
          Alcotest.test_case "warm = plain fixed point" `Quick
            test_warm_start_equals_plain_fixed_point ] );
      ( "allocator edges",
        [ Alcotest.test_case "rail repair" `Quick test_tetris_alloc_requires_admitting_rows;
          Alcotest.test_case "full row" `Quick test_occupancy_full_row_no_spot;
          Alcotest.test_case "empty design metric" `Quick test_order_preservation_empty ] ) ]
