(* The paper's running examples, end to end:

   - Figure 2's single-row-height placement and its constraint matrix B;
   - Figure 3's mixed-height placement, the subcell split, and the E matrix
     of Problem (12);
   - the KKT -> LCP conversion (Equation (15)) and its solution by the
     MMSIM (Algorithm 1), verified against the dense active-set oracle.

     dune exec examples/paper_example.exe *)

open Mclh_linalg
open Mclh_circuit
open Mclh_core

let print_dense name d =
  Format.printf "%s =@.%a@.@." name Dense.pp d

(* the model numbers its variables row by row; name each column *)
let print_vars (model : Model.t) =
  let name v =
    Printf.sprintf "%s row%d"
      model.Model.design.Design.cells.(model.Model.var_cell.(v)).Cell.name
      model.Model.var_row.(v)
  in
  Format.printf "variables: x = [%s]@.@."
    (String.concat "; " (List.init model.Model.nvars name))

let cell ?rail ~id ~name ~w ~h () =
  Cell.make ~id ~name ~width:w ~height:h ?bottom_rail:rail ()

let () =
  (* ----- Figure 2: five single-height cells in two rows ----- *)
  Format.printf "=== Figure 2: single-row-height cells ===@.@.";
  let chip = Chip.make ~num_rows:2 ~num_sites:40 () in
  let cells =
    [| cell ~id:0 ~name:"c1" ~w:2 ~h:1 ();
       cell ~id:1 ~name:"c2" ~w:3 ~h:1 ();
       cell ~id:2 ~name:"c3" ~w:4 ~h:1 ();
       cell ~id:3 ~name:"c4" ~w:2 ~h:1 ();
       cell ~id:4 ~name:"c5" ~w:2 ~h:1 () |]
  in
  let design =
    Design.make ~name:"figure2" ~chip ~cells
      ~global:
        (Placement.make ~xs:[| 1.0; 2.0; 6.0; 8.0; 12.0 |]
           ~ys:[| 1.0; 0.0; 1.0; 0.0; 1.0 |])
      ~nets:(Netlist.empty ~num_cells:5) ()
  in
  let model = Model.build design (Row_assign.assign design) in
  print_vars model;
  print_dense "B (c2,c4 in row 0; c1,c3,c5 in row 1)" (Csr.to_dense (Model.b_matrix model));
  Format.printf "b = %a@.@." Vec.pp model.Model.b_rhs;

  (* ----- Figure 3: mixed heights, subcell splitting ----- *)
  Format.printf "=== Figure 3: mixed-cell-height cells ===@.@.";
  let cells =
    [| cell ~rail:Rail.Vss ~id:0 ~name:"c1" ~w:2 ~h:2 ();
       cell ~id:1 ~name:"c2" ~w:3 ~h:1 ();
       cell ~rail:Rail.Vss ~id:2 ~name:"c3" ~w:2 ~h:2 () |]
  in
  let design =
    Design.make ~name:"figure3" ~chip ~cells
      ~global:
        (Placement.make ~xs:[| 1.0; 4.0; 8.0 |] ~ys:[| 0.0; 0.0; 0.0 |])
      ~nets:(Netlist.empty ~num_cells:3) ()
  in
  let model = Model.build design (Row_assign.assign design) in
  print_vars model;
  print_dense "B" (Csr.to_dense (Model.b_matrix model));
  print_dense "E (x of each double's two subcells must match)"
    (Csr.to_dense (Blocks.e_matrix model.Model.blocks));

  (* ----- the LCP and its MMSIM solution ----- *)
  Format.printf "=== Equation (15): KKT as an LCP, solved by Algorithm 1 ===@.@.";
  let lambda = Config.default.Config.lambda in
  let lcp = Solver.lcp_problem model ~lambda in
  Format.printf "LCP dimension: %d (n = %d subcell vars + m = %d constraints)@."
    (Mclh_lcp.Lcp.dim lcp) model.Model.nvars (Model.num_constraints model);
  let res = Solver.solve ~config:{ Config.default with eps = 1e-10 } model in
  Format.printf "MMSIM: %d iterations, converged %b@." res.Solver.iterations
    res.Solver.converged;
  Format.printf "subcell positions x = %a@." Vec.pp res.Solver.x;
  Format.printf "multipliers      r = %a@." Vec.pp res.Solver.r;
  let z = Array.append res.Solver.x res.Solver.r in
  Format.printf "LCP residual: %.2e@.@." (Mclh_lcp.Lcp.residual_inf lcp z);

  (* oracle cross-check (Theorem 1: QP optimum == LCP solution) *)
  let qp = Model.to_qp model ~lambda in
  let oracle = Mclh_qp.Active_set.solve ~x0:(Model.packed_start model) qp in
  Format.printf "active-set oracle x = %a@." Vec.pp oracle.Mclh_qp.Active_set.x;
  Format.printf "objective: MMSIM %.6f vs oracle %.6f@."
    (Mclh_qp.Qp.objective qp res.Solver.x)
    (Mclh_qp.Qp.objective qp oracle.Mclh_qp.Active_set.x);

  (* ----- and the full legal placement ----- *)
  let legal = Flow.legalize design in
  Format.printf "@.legalized (x, row):@.";
  Array.iter
    (fun (c : Cell.t) ->
      Format.printf "  %s -> (%.0f, %.0f)@." c.Cell.name
        legal.Placement.xs.(c.Cell.id) legal.Placement.ys.(c.Cell.id))
    design.Design.cells;
  assert (Legality.is_legal design legal)
