(* Tests for the core legalization machinery: row assignment, ordering,
   the QP/LCP model (checked against the paper's Figure 2 and Figure 3
   examples), the Schur complement, the MMSIM solver against the dense
   active-set oracle, Abacus PlaceRow, and the allocation stages. *)

open Mclh_linalg
open Mclh_circuit
open Mclh_core
open Mclh_benchgen

let cell ?rail ~id ~w ~h () = Cell.make ~id ~width:w ~height:h ?bottom_rail:rail ()

let design ~chip ~cells ~xs ~ys =
  Design.make ~name:"t" ~chip ~cells
    ~global:(Placement.make ~xs ~ys)
    ~nets:(Netlist.empty ~num_cells:(Array.length cells))
    ()

(* ---------- Row_assign ---------- *)

let test_row_assign_nearest () =
  let chip = Chip.make ~num_rows:6 ~num_sites:40 () in
  let cells =
    [| cell ~id:0 ~w:2 ~h:1 ();
       cell ~rail:Rail.Vss ~id:1 ~w:2 ~h:2 ();
       cell ~rail:Rail.Vdd ~id:2 ~w:2 ~h:2 () |]
  in
  let d =
    design ~chip ~cells ~xs:[| 0.0; 5.0; 10.0 |] ~ys:[| 2.7; 2.8; 2.8 |]
  in
  let a = Row_assign.assign d in
  Alcotest.(check int) "odd nearest" 3 a.Row_assign.rows.(0);
  (* VSS double admits even rows: from 2.8, row 2 *)
  Alcotest.(check int) "vss parity" 2 a.Row_assign.rows.(1);
  (* VDD double admits odd rows: from 2.8, row 3 *)
  Alcotest.(check int) "vdd parity" 3 a.Row_assign.rows.(2);
  (* y displacement in site units: rh * (0.3 + 0.8 + 0.2) *)
  Alcotest.(check (float 1e-9)) "y displacement"
    (chip.Chip.row_height *. 1.3)
    a.Row_assign.y_displacement

(* ---------- Order ---------- *)

let test_order_per_row () =
  let chip = Chip.make ~num_rows:4 ~num_sites:40 () in
  let cells =
    [| cell ~id:0 ~w:2 ~h:1 ();
       cell ~id:1 ~w:2 ~h:1 ();
       cell ~rail:Rail.Vss ~id:2 ~w:2 ~h:2 () |]
  in
  let d = design ~chip ~cells ~xs:[| 9.0; 1.0; 5.0 |] ~ys:[| 0.0; 0.0; 0.0 |] in
  let rows = [| 0; 0; 0 |] in
  let order = Order.per_row d ~rows in
  Alcotest.(check (array int)) "row0 by global x" [| 1; 2; 0 |] order.(0);
  Alcotest.(check (array int)) "row1 only the double" [| 2 |] order.(1);
  Alcotest.(check (array int)) "row2 empty" [||] order.(2)

let test_order_preservation_metric () =
  let chip = Chip.make ~num_rows:2 ~num_sites:40 () in
  let cells = Array.init 3 (fun id -> cell ~id ~w:2 ~h:1 ()) in
  let d = design ~chip ~cells ~xs:[| 0.0; 5.0; 10.0 |] ~ys:[| 0.0; 0.0; 0.0 |] in
  let same = Placement.make ~xs:[| 0.0; 5.0; 10.0 |] ~ys:[| 0.0; 0.0; 0.0 |] in
  Alcotest.(check (float 1e-9)) "preserved" 1.0 (Order.preservation d same);
  let swapped = Placement.make ~xs:[| 5.0; 0.0; 10.0 |] ~ys:[| 0.0; 0.0; 0.0 |] in
  Alcotest.(check (float 1e-9)) "one inversion" 0.5 (Order.preservation d swapped)

(* ---------- Model: the paper's Figure 2 (single height) ---------- *)

(* The model numbers its variables row by row, so the tests name a
   variable by its (cell, chip row) identity rather than by its id. *)
let var_of (m : Model.t) ~cell ~row =
  let found = ref (-1) in
  Array.iteri
    (fun v c -> if c = cell && m.Model.var_row.(v) = row then found := v)
    m.Model.var_cell;
  if !found < 0 then Alcotest.failf "no variable for cell %d in row %d" cell row;
  !found

(* a per-variable vector from (cell, row, value) triples covering every
   variable *)
let vec_by_identity (m : Model.t) entries =
  Alcotest.(check int) "every variable named" m.Model.nvars (List.length entries);
  let x = Vec.zeros m.Model.nvars in
  List.iter (fun (cell, row, value) -> x.(var_of m ~cell ~row) <- value) entries;
  x

(* a dense matrix with one row per list entry, from (cell, row, value)
   triples *)
let dense_by_identity (m : Model.t) rows =
  let out = Dense.create (List.length rows) m.Model.nvars in
  List.iteri
    (fun i entries ->
      List.iter
        (fun (cell, row, value) -> Dense.set out i (var_of m ~cell ~row) value)
        entries)
    rows;
  out

let figure2_design () =
  (* cells c2, c4 on row 0; c1, c3, c5 on row 1 (paper rows renumbered).
     widths: w1 = 2, w2 = 3, w3 = 4, w4 = 2, w5 = 2 *)
  let chip = Chip.make ~num_rows:2 ~num_sites:40 () in
  let cells =
    [| cell ~id:0 ~w:2 ~h:1 (); (* c1 *)
       cell ~id:1 ~w:3 ~h:1 (); (* c2 *)
       cell ~id:2 ~w:4 ~h:1 (); (* c3 *)
       cell ~id:3 ~w:2 ~h:1 (); (* c4 *)
       cell ~id:4 ~w:2 ~h:1 () (* c5 *) |]
  in
  design ~chip ~cells
    ~xs:[| 1.0; 2.0; 6.0; 8.0; 12.0 |]
    ~ys:[| 1.0; 0.0; 1.0; 0.0; 1.0 |]

let test_model_figure2 () =
  let d = figure2_design () in
  let a = Row_assign.assign d in
  let m = Model.build d a in
  Alcotest.(check int) "nvars" 5 m.Model.nvars;
  Alcotest.(check int) "constraints" 3 (Model.num_constraints m);
  (* row 0 order: c2 then c4 -> constraint x4 - x2 >= w2 = 3 *)
  (* row 1 order: c1, c3, c5 -> x3 - x1 >= 2; x5 - x3 >= 4 *)
  let b_dense = Csr.to_dense (Model.b_matrix m) in
  let expect =
    dense_by_identity m
      [ [ (1, 0, -1.0); (3, 0, 1.0) ];
        [ (0, 1, -1.0); (2, 1, 1.0) ];
        [ (2, 1, -1.0); (4, 1, 1.0) ] ]
  in
  Alcotest.(check bool) "B matches the paper" true (Dense.equal b_dense expect);
  Alcotest.(check bool) "b = (w2, w1, w3)" true
    (Vec.equal m.Model.b_rhs (Vec.of_list [ 3.0; 2.0; 4.0 ]));
  Alcotest.(check bool) "p = -x'" true
    (Vec.equal m.Model.p
       (vec_by_identity m
          [ (0, 1, -1.0); (1, 0, -2.0); (2, 1, -6.0); (3, 0, -8.0); (4, 1, -12.0) ]));
  Alcotest.(check int) "no chains" 0 (Blocks.num_chains m.Model.blocks);
  (* Proposition 1: B has full row rank (here: B B^T nonsingular) *)
  let bbt = Dense.outer_gram b_dense in
  Alcotest.(check bool) "full row rank" true
    (Float.abs (Lu.det (Lu.factorize bbt)) > 1e-9)

(* ---------- Model: the paper's Figure 3 (mixed height) ---------- *)

let figure3_design () =
  (* c1: double (w 2), c2: single (w 3), c3: double (w 2).
     row 0 order: c1, c2, c3; row 1 order: c1, c3. *)
  let chip = Chip.make ~num_rows:2 ~num_sites:40 () in
  let cells =
    [| cell ~rail:Rail.Vss ~id:0 ~w:2 ~h:2 ();
       cell ~id:1 ~w:3 ~h:1 ();
       cell ~rail:Rail.Vss ~id:2 ~w:2 ~h:2 () |]
  in
  design ~chip ~cells ~xs:[| 1.0; 4.0; 8.0 |] ~ys:[| 0.0; 0.0; 0.0 |]

let test_model_figure3 () =
  let d = figure3_design () in
  let a = Row_assign.assign d in
  let m = Model.build d a in
  (* variables: c1 and c3 have one subcell in each of rows 0 and 1,
     c2 one in row 0 *)
  Alcotest.(check int) "nvars" 5 m.Model.nvars;
  Alcotest.(check int) "constraints" 3 (Model.num_constraints m);
  let b_dense = Csr.to_dense (Model.b_matrix m) in
  (* row 0: x_c2 - x_c1 >= 2; x_c3 - x_c2 >= 3. row 1: x_c3 - x_c1 >= 2 *)
  let expect_b =
    dense_by_identity m
      [ [ (0, 0, -1.0); (1, 0, 1.0) ];
        [ (1, 0, -1.0); (2, 0, 1.0) ];
        [ (0, 1, -1.0); (2, 1, 1.0) ] ]
  in
  Alcotest.(check bool) "B with subcell split" true (Dense.equal b_dense expect_b);
  Alcotest.(check bool) "b = (w1, w2, w1)" true
    (Vec.equal m.Model.b_rhs (Vec.of_list [ 2.0; 3.0; 2.0 ]));
  (* E: one row per double, x_spoke - x_hub *)
  let e_dense = Csr.to_dense (Blocks.e_matrix m.Model.blocks) in
  let expect_e =
    dense_by_identity m
      [ [ (0, 0, -1.0); (0, 1, 1.0) ]; [ (2, 0, -1.0); (2, 1, 1.0) ] ]
  in
  Alcotest.(check bool) "E matches the paper" true (Dense.equal e_dense expect_e);
  Alcotest.(check bool) "all chains double" true (Schur_ref.all_double m);
  (* p duplicates targets across subcells *)
  Alcotest.(check bool) "p subcells" true
    (Vec.equal m.Model.p
       (vec_by_identity m
          [ (0, 0, -1.0); (0, 1, -1.0); (1, 0, -4.0); (2, 0, -8.0); (2, 1, -8.0) ]));
  (* Proposition 2: Q + lambda E^T E is SPD - check via Cholesky-ish LU det
     of the explicit matrix and symmetry *)
  let qp = Model.to_qp m ~lambda:10.0 in
  let qd = Csr.to_dense qp.Mclh_qp.Qp.q_mat in
  Alcotest.(check bool) "Q~ symmetric" true (Dense.is_symmetric qd);
  Alcotest.(check bool) "Q~ positive definite" true
    (Lu.det (Lu.factorize qd) > 0.0);
  (* B full row rank with the split (Proposition 2) *)
  let bbt = Dense.outer_gram b_dense in
  Alcotest.(check bool) "B full row rank" true
    (Float.abs (Lu.det (Lu.factorize bbt)) > 1e-9)

let test_model_apply_q_tilde () =
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let lambda = 17.0 in
  let qp = Model.to_qp m ~lambda in
  let x = Vec.of_list [ 1.0; -2.0; 0.5; 3.0; 4.0 ] in
  Alcotest.(check bool) "operator matches matrix" true
    (Vec.equal ~eps:1e-10
       (Model.apply_q_tilde m ~lambda x)
       (Csr.mul_vec qp.Mclh_qp.Qp.q_mat x))

let test_model_packed_start_feasible () =
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let qp = Model.to_qp m ~lambda:1000.0 in
  Alcotest.(check bool) "packed start feasible" true
    (Mclh_qp.Qp.is_feasible qp (Model.packed_start m))

let test_model_cell_positions () =
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let x =
    vec_by_identity m
      [ (0, 0, 1.0); (0, 1, 3.0); (1, 0, 5.0); (2, 0, 7.0); (2, 1, 9.0) ]
  in
  let pos = Model.cell_positions m x in
  Alcotest.(check bool) "averaging" true
    (Vec.equal pos (Vec.of_list [ 2.0; 5.0; 8.0 ]));
  Alcotest.(check (float 1e-12)) "mismatch" 2.0 (Model.subcell_mismatch m x)

(* ---------- Schur ---------- *)

(* the full (un-truncated) B Q~^-1 B^T, one exact column per constraint;
   O(m^2) memory, for small models *)
let schur_dense (model : Model.t) ~lambda =
  let b = Model.b_matrix model in
  let m = Model.num_constraints model in
  let out = Dense.create m m in
  for i = 0 to m - 1 do
    let col = Vec.zeros model.Model.nvars in
    List.iter
      (fun (v, y) -> col.(v) <- col.(v) +. y)
      (Schur_ref.solve_shifted_sparse ~alpha:1.0 ~coef:lambda model.Model.blocks
         (Csr.row_entries b i));
    Array.iteri (fun k bk -> Dense.set out k i bk) (Csr.mul_vec b col)
  done;
  out

(* the production D against the paper's closed form *)
let test_schur_paths_agree () =
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let lambda = 1000.0 in
  let sm = Schur_ref.tridiag_sm m ~lambda in
  let exact = Schur.tridiag m ~lambda in
  Alcotest.(check bool) "SM = exact (all doubles)" true
    (Dense.equal ~eps:1e-9 (Tridiag.to_dense sm) (Tridiag.to_dense exact))

let test_schur_matches_dense () =
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let lambda = 100.0 in
  let tri = Schur.tridiag m ~lambda in
  let full = schur_dense m ~lambda in
  let mm = Model.num_constraints m in
  for i = 0 to mm - 1 do
    let expect = Dense.get full i i in
    let got = (Tridiag.to_dense tri |> fun dm -> Dense.get dm i i) in
    if Float.abs (expect -. got) > 1e-9 then
      Alcotest.failf "diag %d: %g vs %g" i got expect;
    if i + 1 < mm then begin
      let expect = Dense.get full i (i + 1) in
      let got = (Tridiag.to_dense tri |> fun dm -> Dense.get dm i (i + 1)) in
      if Float.abs (expect -. got) > 1e-9 then
        Alcotest.failf "off %d: %g vs %g" i got expect
    end
  done

let test_schur_dense_vs_bruteforce () =
  (* B Q~^-1 B^T computed via explicit dense inversion *)
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let lambda = 50.0 in
  let qp = Model.to_qp m ~lambda in
  let qinv = Lu.inverse (Lu.factorize (Csr.to_dense qp.Mclh_qp.Qp.q_mat)) in
  let b = Csr.to_dense (Model.b_matrix m) in
  let brute = Dense.mul b (Dense.mul qinv (Dense.transpose b)) in
  Alcotest.(check bool) "dense schur correct" true
    (Dense.equal ~eps:1e-8 brute (schur_dense m ~lambda))


(* designs with 0-20% blockage and 0-40% tall cells; without tall cells
   every chain is a pair, where the closed form applies too *)
let mixed_design_gen =
  QCheck.(triple (int_range 1 1000) (int_range 0 20) (int_range 0 40))

let mixed_model (seed, blockage, tall) =
  let inst =
    Generate.generate
      ~options:
        { Generate.default_options with
          seed;
          blockage_fraction = float_of_int blockage /. 100.0;
          tall_cell_fraction = float_of_int tall /. 100.0 }
      (Spec.scaled 0.004 (Spec.find "fft_2"))
  in
  let d = inst.Generate.design in
  Model.build d (Row_assign.assign d)

let tridiag_bits (t : Tridiag.t) =
  Array.map Int64.bits_of_float (Array.append t.Tridiag.diag t.Tridiag.sup)

(* [Schur.tridiag] sums each entry term by term in the order the list
   oracle folds its columns, so D is the same bits on the whole model and
   on every extracted shard (where dropped couplings leave +0); where
   every chain is a pair, the paper's closed form gives those bits too
   at the default lambda *)
let prop_schur_matches_lists =
  QCheck.Test.make ~count:20 ~name:"schur: direct = list oracle, bit for bit"
    mixed_design_gen (fun draw ->
      let model = mixed_model draw in
      let lambda = Config.default.Config.lambda in
      let models =
        model
        :: Array.to_list
             (Array.map (Decompose.extract model)
                (Decompose.analyze model).Decompose.shards)
      in
      List.for_all
        (fun (m : Model.t) ->
          let bits = tridiag_bits (Schur.tridiag m ~lambda) in
          bits = tridiag_bits (Schur_ref.tridiag m ~lambda)
          && ((not (Schur_ref.all_double m))
             || bits = tridiag_bits (Schur_ref.tridiag_sm m ~lambda)))
        models)

(* ---------- Abacus PlaceRow ---------- *)

let rc target width = { Abacus.target; width }

let test_place_row_no_overlap () =
  let placed = Abacus.place_row [| rc 1.0 2.0; rc 8.0 2.0 |] in
  Alcotest.(check (array (float 1e-12))) "targets kept" [| 1.0; 8.0 |] placed

let test_place_row_two_cell_collapse () =
  (* both want 10.0, widths 4: optimal split is 8 and 12 *)
  let placed = Abacus.place_row [| rc 10.0 4.0; rc 10.0 4.0 |] in
  Alcotest.(check (array (float 1e-9))) "even split" [| 8.0; 12.0 |] placed

let test_place_row_left_clamp () =
  let placed = Abacus.place_row [| rc (-5.0) 3.0; rc (-5.0) 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "clamped at zero" [| 0.0; 3.0 |] placed

let test_place_row_right_boundary () =
  let placed = Abacus.place_row ~xmax:10.0 [| rc 9.0 4.0; rc 9.0 4.0 |] in
  Alcotest.(check (array (float 1e-9))) "clamped at right" [| 2.0; 6.0 |] placed

let test_place_row_cost () =
  Alcotest.(check (float 1e-9)) "cost of even split" 8.0
    (Abacus.place_row_cost [| rc 10.0 4.0; rc 10.0 4.0 |]);
  Alcotest.(check (float 1e-9)) "zero cost" 0.0
    (Abacus.place_row_cost [| rc 1.0 2.0; rc 8.0 2.0 |])

let test_place_row_does_not_fit () =
  Alcotest.(check bool) "rejects overflow" true
    (try
       ignore (Abacus.place_row ~xmax:3.0 [| rc 0.0 2.0; rc 0.0 2.0 |]);
       false
     with Invalid_argument _ -> true)

let test_place_row_vs_oracle () =
  (* the cluster DP must match the dense active-set optimum *)
  let rand =
    let state = ref 99 in
    fun () ->
      state := (!state * 1103515245) + 12345;
      float_of_int (!state land 0xFFFFFF) /. float_of_int 0xFFFFFF
  in
  for _ = 1 to 15 do
    let k = 2 + int_of_float (rand () *. 6.0) in
    let widths = Array.init k (fun _ -> 1.0 +. Float.round (rand () *. 5.0)) in
    let targets = Array.init k (fun _ -> rand () *. 20.0) in
    Array.sort compare targets;
    let abacus_cost =
      Abacus.place_row_cost (Array.init k (fun i -> rc targets.(i) widths.(i)))
    in
    (* oracle on the same chain QP *)
    let coo = Coo.create ~rows:(k - 1) ~cols:k in
    for i = 0 to k - 2 do
      Coo.add coo i i (-1.0);
      Coo.add coo i (i + 1) 1.0
    done;
    let qp =
      Mclh_qp.Qp.make ~q_mat:(Csr.identity k)
        ~p:(Vec.init k (fun i -> -.targets.(i)))
        ~b_mat:(Coo.to_csr coo)
        ~b_rhs:(Vec.init (k - 1) (fun i -> widths.(i)))
    in
    let x0 = Array.make k 0.0 in
    for i = 1 to k - 1 do
      x0.(i) <- x0.(i - 1) +. widths.(i - 1)
    done;
    let oracle = Mclh_qp.Active_set.solve ~x0 qp in
    let oracle_cost =
      Mclh_qp.Qp.objective qp oracle.Mclh_qp.Active_set.x
      +. (0.5 *. Array.fold_left (fun acc t -> acc +. (t *. t)) 0.0 targets)
    in
    if Float.abs ((abacus_cost /. 2.0) -. oracle_cost) > 1e-6 then
      Alcotest.failf "PlaceRow %g vs oracle %g" (abacus_cost /. 2.0) oracle_cost
  done

(* ---------- Solver vs oracle ---------- *)

let solver_matches_oracle d =
  let a = Row_assign.assign d in
  let m = Model.build d a in
  let config = { Config.default with eps = 1e-10; max_iter = 500_000 } in
  let res = Solver.solve ~config m in
  Alcotest.(check bool) "converged" true res.Solver.converged;
  let lambda = config.Config.lambda in
  let qp = Model.to_qp m ~lambda in
  let oracle = Mclh_qp.Active_set.solve ~x0:(Model.packed_start m) qp in
  Alcotest.(check bool) "oracle converged" true oracle.Mclh_qp.Active_set.converged;
  let obj_mmsim = Mclh_qp.Qp.objective qp res.Solver.x in
  let obj_oracle = Mclh_qp.Qp.objective qp oracle.Mclh_qp.Active_set.x in
  if Float.abs (obj_mmsim -. obj_oracle) > 1e-4 *. Float.max 1.0 (Float.abs obj_oracle)
  then Alcotest.failf "objective %.8f vs oracle %.8f" obj_mmsim obj_oracle

let test_solver_oracle_figure3 () = solver_matches_oracle (figure3_design ())

let test_solver_oracle_random_mixed () =
  List.iter
    (fun seed ->
      let inst =
        Generate.generate
          ~options:{ Generate.default_options with seed }
          (Spec.scaled 0.0008 (Spec.find "fft_2"))
      in
      solver_matches_oracle inst.Generate.design)
    [ 1; 2; 3 ]

let test_solver_lcp_solution () =
  (* the MMSIM iterate solves the explicit KKT LCP *)
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let config = { Config.default with eps = 1e-12; max_iter = 500_000 } in
  let res = Solver.solve ~config m in
  let lcp = Solver.lcp_problem m ~lambda:config.Config.lambda in
  let z = Array.append res.Solver.x res.Solver.r in
  Alcotest.(check bool) "z solves the LCP" true
    (Mclh_lcp.Lcp.is_solution ~eps:1e-5 lcp z)

let test_solver_bound_check () =
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let b = Solver.check_bound m Config.default in
  Alcotest.(check bool) "mu_max positive" true (b.Solver.mu_max > 0.0);
  Alcotest.(check bool) "paper setting admissible" true b.Solver.theta_ok

let test_solver_mismatch_lambda () =
  (* larger lambda gives smaller subcell mismatch *)
  let inst = Generate.generate (Spec.scaled 0.002 (Spec.find "fft_1")) in
  let d = inst.Generate.design in
  let m = Model.build d (Row_assign.assign d) in
  let run lambda =
    let config = { Config.default with lambda; eps = 1e-9; max_iter = 200_000 } in
    (Solver.solve ~config m).Solver.mismatch
  in
  let m10 = run 10.0 and m1000 = run 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mismatch decreases with lambda (%g vs %g)" m10 m1000)
    true (m1000 < m10 +. 1e-12)


(* ---------- three independent solvers on the same legalization model ---------- *)

let test_cross_solver_agreement () =
  (* MMSIM (modulus iteration), Lemke (complementary pivoting on the KKT
     LCP), IPM (path following on the QP) and the active-set method share
     no code; agreement on the same instance is strong evidence that each
     is correct *)
  List.iter
    (fun seed ->
      let inst =
        Generate.generate
          ~options:{ Generate.default_options with seed }
          (Spec.scaled 0.0006 (Spec.find "fft_2"))
      in
      let d = inst.Generate.design in
      let m = Model.build d (Row_assign.assign d) in
      let lambda = Config.default.Config.lambda in
      let qp = Model.to_qp m ~lambda in
      let config = { Config.default with eps = 1e-10; max_iter = 500_000 } in
      let mmsim = Solver.solve ~config m in
      let obj_mmsim = Mclh_qp.Qp.objective qp mmsim.Solver.x in
      (* Lemke on the explicit KKT LCP *)
      let lcp = Solver.lcp_problem m ~lambda in
      (match Oracle.Lemke.solve lcp with
      | Oracle.Lemke.Solution z ->
        let x_lemke = Array.sub z 0 m.Model.nvars in
        let obj_lemke = Mclh_qp.Qp.objective qp x_lemke in
        if Float.abs (obj_lemke -. obj_mmsim) > 1e-4 *. Float.abs obj_mmsim then
          Alcotest.failf "Lemke %.8f vs MMSIM %.8f" obj_lemke obj_mmsim
      | Oracle.Lemke.Ray_termination | Oracle.Lemke.Iteration_limit ->
        Alcotest.fail "Lemke failed on the KKT LCP");
      (* interior point on the QP *)
      let ipm = Oracle.Ipm.solve qp in
      Alcotest.(check bool) "ipm converged" true ipm.Oracle.Ipm.converged;
      let obj_ipm = Mclh_qp.Qp.objective qp ipm.Oracle.Ipm.x in
      if Float.abs (obj_ipm -. obj_mmsim) > 1e-4 *. Float.abs obj_mmsim then
        Alcotest.failf "IPM %.8f vs MMSIM %.8f" obj_ipm obj_mmsim)
    [ 11; 12; 13 ]

(* equal bit patterns, signed zeros included *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* the production operators must generate exactly the iterates of the
   reference operators on the explicit matrix: the paper's plain
   Algorithm 1 at beta = theta = 0.5 and the solver's accelerated attempt
   (beta 1, theta 0.4, Anderson depth 8) *)
let check_operators_match label (m : Model.t) =
  List.iter
    (fun (beta, theta, accel) ->
      let config =
        { Config.default with beta; theta; eps = 1e-8; max_iter = 200_000 }
      in
      let q = Solver.rhs_q m in
      let options =
        { Mclh_lcp.Mmsim.eps = config.Config.eps;
          max_iter = config.Config.max_iter; accel }
      in
      let reference =
        Mclh_lcp.Mmsim.solve ~options (Solver_ref.operators m config) ~q
      in
      let fused = Mclh_lcp.Mmsim.solve ~options (Solver.operators m config) ~q in
      let what = Printf.sprintf "%s (beta %g, theta %g, depth %d)" label beta theta accel in
      Alcotest.(check int) (what ^ ": iterations")
        reference.Mclh_lcp.Mmsim.iterations fused.Mclh_lcp.Mmsim.iterations;
      Alcotest.(check bool) (what ^ ": z bits") true
        (same_bits reference.Mclh_lcp.Mmsim.z fused.Mclh_lcp.Mmsim.z);
      Alcotest.(check bool) (what ^ ": s bits") true
        (same_bits reference.Mclh_lcp.Mmsim.s fused.Mclh_lcp.Mmsim.s))
    [ (0.5, 0.5, 0); (1.0, 0.4, 8) ]

let test_inplace_equals_generic () =
  List.iter
    (fun seed ->
      let inst =
        Generate.generate
          ~options:{ Generate.default_options with seed }
          (Spec.scaled 0.002 (Spec.find "fft_2"))
      in
      let d = inst.Generate.design in
      let m = Model.build d (Row_assign.assign d) in
      check_operators_match (Printf.sprintf "fft_2 seed %d" seed) m)
    [ 21; 22 ];
  (* extracted shards of a blockage + tall design: local groups, chains
     of up to four rows and a Schur tridiagonal with dropped couplings *)
  let inst =
    Generate.generate
      ~options:
        { Generate.default_options with
          blockage_fraction = 0.15;
          tall_cell_fraction = 0.3 }
      (Spec.scaled 0.004 (Spec.find "fft_2"))
  in
  let d = inst.Generate.design in
  let m = Model.build d (Row_assign.assign d) in
  let shards = (Decompose.analyze m).Decompose.shards in
  let split = ref 0 in
  Array.iteri
    (fun i shard ->
      let sub = Decompose.extract m shard in
      if Array.exists Fun.id sub.Model.d_split then incr split;
      check_operators_match (Printf.sprintf "shard %d" i) sub)
    shards;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d shards drop a D coupling" !split (Array.length shards))
    true (!split > 0)


(* ---------- Chunked operators ---------- *)

(* superblue12 at 0.04: one 111,840-dimensional LCP that the solver cuts
   into several chunks *)
let sb12_model =
  lazy
    (let inst = Generate.generate (Spec.scaled 0.04 (Spec.find "superblue12")) in
     let d = inst.Generate.design in
     Model.build d (Row_assign.assign d))

(* chunks tile the groups in order, and every cut lies at a group
   boundary where D's coupling is +0 (or no constraint lies on a side),
   on superblue12 models of 33k to 90k dimensions, large enough to cut,
   with 0-20% blockage and 0-40% tall cells *)
let prop_chunk_plan =
  QCheck.Test.make ~count:12 ~name:"chunks: tile the groups, cut at +0 couplings"
    QCheck.(
      quad (int_range 1 1000) (oneofl [ 0.012; 0.021; 0.03 ]) (int_range 0 20)
        (int_range 0 40))
    (fun (seed, scale, blockage, tall) ->
      let inst =
        Generate.generate
          ~options:
            { Generate.default_options with
              seed;
              blockage_fraction = float_of_int blockage /. 100.0;
              tall_cell_fraction = float_of_int tall /. 100.0 }
          (Spec.scaled scale (Spec.find "superblue12"))
      in
      let design = inst.Generate.design in
      let model = Model.build design (Row_assign.assign design) in
      let d = Schur.tridiag model ~lambda:Config.default.Config.lambda in
      let cg = Solver.chunk_groups model d in
      let starts = Model.group_starts model.Model.row_vars in
      let ng = Array.length starts - 1 and m = Model.num_constraints model in
      let k = Array.length cg - 1 in
      let cut_ok g =
        let c = starts.(g) - g in
        c = 0 || c = m || Int64.bits_of_float d.Tridiag.sup.(c - 1) = 0L
      in
      let dim c =
        (2 * (starts.(cg.(c + 1)) - starts.(cg.(c)))) - (cg.(c + 1) - cg.(c))
      in
      k >= 1
      && cg.(0) = 0
      && cg.(k) = ng
      && List.for_all
           (fun c ->
             cg.(c) < cg.(c + 1) && (k = 1 || dim c >= Solver.chunk_min_dim))
           (List.init k Fun.id)
      && List.for_all (fun c -> cut_ok cg.(c)) (List.init (k - 1) succ))

(* the chunked operators run the same iterates at every pool size, and
   those of the explicit-CSR reference: a fixed budget, a stop no step
   meets, plain Algorithm 1 and the accelerated attempt *)
let test_chunked_iterates_bit_identical () =
  let m = Lazy.force sb12_model in
  let q = Solver.rhs_q m in
  List.iter
    (fun (beta, theta, accel) ->
      let config = { Config.default with beta; theta; num_domains = 1 } in
      let options =
        { Mclh_lcp.Mmsim.eps = 1e-300; max_iter = 20; accel }
      in
      let s0 = Warm_start.modulus_vector m (Solver.operators m config) in
      let run ops = Mclh_lcp.Mmsim.solve ~options ~s0 ops ~q in
      let reference = run (Solver_ref.operators m config) in
      Alcotest.(check int) "budget spent" 20 reference.Mclh_lcp.Mmsim.iterations;
      List.iter
        (fun num_domains ->
          let ops = Solver.operators m { config with num_domains } in
          let what =
            Printf.sprintf "beta %g, theta %g, depth %d, %d domains" beta theta
              accel num_domains
          in
          Alcotest.(check bool) (what ^ ": several chunks") true
            (ops.Mclh_lcp.Mmsim.chunks >= 2);
          let out = run ops in
          Alcotest.(check int) (what ^ ": iterations")
            reference.Mclh_lcp.Mmsim.iterations out.Mclh_lcp.Mmsim.iterations;
          Alcotest.(check bool) (what ^ ": z bits") true
            (same_bits reference.Mclh_lcp.Mmsim.z out.Mclh_lcp.Mmsim.z);
          Alcotest.(check bool) (what ^ ": s bits") true
            (same_bits reference.Mclh_lcp.Mmsim.s out.Mclh_lcp.Mmsim.s))
        [ 1; 2; 4 ])
    [ (0.5, 0.5, 0); (1.0, 0.4, 8) ]

(* every way the chunks group into sweep loops (four to a forward loop,
   a remainder of one to three swept one by one; two to a back loop, an
   odd one alone) gives the reference operators' bits, on superblue12
   cut into 2, 3, 5 and 7 chunks, with signed zeros in the input *)
let test_chunk_groupings () =
  let counts = ref [] in
  List.iter
    (fun scale ->
      let inst = Generate.generate (Spec.scaled scale (Spec.find "superblue12")) in
      let d = inst.Generate.design in
      let m = Model.build d (Row_assign.assign d) in
      let dim = m.Model.nvars + Model.num_constraints m in
      let rand = Random.State.make [| 7 |] in
      let v =
        Array.init dim (fun _ ->
            match Random.State.int rand 8 with
            | 0 -> -0.0
            | 1 -> 0.0
            | _ -> Random.State.float rand 20.0 -. 10.0)
      in
      List.iter
        (fun (beta, num_domains) ->
          let config = { Config.default with beta; theta = 0.4; num_domains } in
          let ops = Solver.operators m config
          and reference = Solver_ref.operators m config in
          counts := ops.Mclh_lcp.Mmsim.chunks :: !counts;
          let what =
            Printf.sprintf "scale %g (%d chunks), beta %g, %d domains" scale
              ops.Mclh_lcp.Mmsim.chunks beta num_domains
          in
          List.iter
            (fun (name, f, g) ->
              let got = Array.make dim 3.0 and expect = Array.make dim 3.0 in
              f v got;
              g (Array.copy v) expect;
              Alcotest.(check bool) (what ^ ": " ^ name) true (same_bits expect got))
            [ ("A", ops.apply_a_into, reference.Mclh_lcp.Mmsim.apply_a_into);
              ("N", ops.apply_n_into, reference.apply_n_into);
              ("M + Omega", ops.solve_m_omega_into, reference.solve_m_omega_into) ])
        [ (1.0, 1); (0.5, 2); (1.0, 2) ])
    [ 0.012; 0.021; 0.03; 0.045 ];
  let counts = List.sort_uniq compare !counts in
  Alcotest.(check (list int)) "chunk counts" [ 2; 3; 5; 7 ] counts

(* Right-hand sides that make the sweep's restart at a cut differ from
   the sequential step b - (+0 * prev): -0 after a negative predecessor,
   in the forward and in the back sweep, and a non-finite predecessor.
   The chunked solve must still equal one sequential sweep bit for bit;
   each case is checked to differ from solving the chunks apart, so it
   does provoke the hazard. *)
let test_thomas_segment_starts () =
  let m = Lazy.force sb12_model in
  let n = m.Model.nvars and nc = Model.num_constraints m in
  let config = Config.default in
  let lambda = config.Config.lambda and theta = config.Config.theta in
  let d = Schur.tridiag m ~lambda in
  let f =
    Tridiag.prefactor
      (Tridiag.add_scaled_identity (Tridiag.scale (1.0 /. theta) d) 1.0)
  in
  let cg = Solver.chunk_groups m d in
  let starts = Model.group_starts m.Model.row_vars in
  let c_lo c = starts.(cg.(c)) - cg.(c) in
  let k = Array.length cg - 1 in
  Alcotest.(check bool) "several chunks" true (k >= 3);
  (* a cut with constraints on both sides, and the one after it *)
  let lo = c_lo 1 and hi = c_lo 2 in
  Alcotest.(check bool) "chunk 1 holds constraints" true (lo > 0 && hi > lo);
  (* the chunks solved apart: what a restart without the redo gives *)
  let apart b =
    let x = Array.copy b in
    let { Tridiag.f_sub; f_cprime; f_denom } = f in
    for c = 0 to k - 1 do
      let o = c_lo c and e = c_lo (c + 1) in
      if e > o then begin
        x.(o) <- x.(o) /. f_denom.(o);
        for i = o + 1 to e - 1 do
          x.(i) <- (x.(i) -. (f_sub.(i - 1) *. x.(i - 1))) /. f_denom.(i)
        done;
        for i = e - 2 downto o do
          x.(i) <- x.(i) -. (f_cprime.(i) *. x.(i + 1))
        done
      end
    done;
    x
  in
  let cases =
    [ ( "-0 after a negative predecessor",
        fun r ->
          r.(lo - 1) <- -1.0;
          Array.fill r lo (hi - lo) (-0.0) );
      ( "-0 before a negative successor",
        fun r ->
          Array.fill r lo (hi - lo) (-0.0);
          r.(hi) <- -1.0 );
      ("+inf predecessor", fun r -> r.(lo - 1) <- infinity);
      ("nan predecessor", fun r -> r.(lo - 1) <- Float.nan);
      ("+inf successor", fun r -> r.(hi) <- infinity) ]
  in
  List.iter
    (fun num_domains ->
      let ops = Solver.operators m { config with num_domains } in
      List.iter
        (fun (what, fill) ->
          let what = Printf.sprintf "%s, %d domains" what num_domains in
          (* a zero top makes s_x = +0, so the bottom right-hand side is
             r itself: 0 - (+0) + (+0) = +0 and r - (+0) = r *)
          let r = Array.make nc 0.0 in
          fill r;
          let rhs = Array.append (Array.make n 0.0) r in
          let dst = Array.make (n + nc) 1.0 in
          ops.Mclh_lcp.Mmsim.solve_m_omega_into rhs dst;
          let expect = Array.copy r in
          Solver_ref.solve_prefactored f expect expect;
          Alcotest.(check bool) (what ^ ": provokes the hazard") false
            (same_bits expect (apart r));
          Alcotest.(check bool) (what ^ ": top") true
            (same_bits (Array.make n 0.0) (Array.sub dst 0 n));
          Alcotest.(check bool) (what ^ ": one sequential sweep") true
            (same_bits expect (Array.sub dst n nc)))
        cases)
    [ 1; 2 ]

(* ---------- Warm start ---------- *)

let test_warm_start_single_height_exact () =
  let inst =
    Generate.generate
      ~options:{ Generate.default_options with single_height_only = true }
      (Spec.scaled 0.003 (Spec.find "fft_2"))
  in
  let d = inst.Generate.design in
  let m = Model.build d (Row_assign.assign d) in
  let config = { Config.default with eps = 1e-8; max_iter = 100_000 } in
  let res = Solver.solve ~config m in
  Alcotest.(check bool) "single-height warm start is the fixed point" true
    (res.Solver.iterations <= 2)

let test_warm_start_multipliers_nonnegative () =
  let d = figure3_design () in
  let m = Model.build d (Row_assign.assign d) in
  let x0 = Warm_start.positions m in
  let r0 = Warm_start.multipliers m x0 in
  Array.iter
    (fun r -> if r < 0.0 then Alcotest.failf "negative multiplier %g" r)
    r0

(* ---------- Occupancy ---------- *)

let test_occupancy_basics () =
  let chip = Chip.make ~num_rows:4 ~num_sites:20 () in
  let occ = Occupancy.create chip in
  Alcotest.(check bool) "free initially" true
    (Occupancy.is_free_span occ ~row:0 ~height:2 ~x:5 ~width:4);
  Occupancy.occupy occ ~row:0 ~height:2 ~x:5 ~width:4;
  Alcotest.(check int) "occupied sites" 8 (Occupancy.occupied_sites occ);
  Alcotest.(check bool) "not free" false
    (Occupancy.is_free_span occ ~row:1 ~height:1 ~x:8 ~width:2);
  Alcotest.(check bool) "double occupy rejected" true
    (try
       Occupancy.occupy occ ~row:0 ~height:1 ~x:5 ~width:1;
       false
     with Invalid_argument _ -> true);
  Occupancy.release occ ~row:0 ~height:2 ~x:5 ~width:4;
  Alcotest.(check int) "released" 0 (Occupancy.occupied_sites occ);
  Alcotest.(check bool) "span beyond chip" false
    (Occupancy.is_free_span occ ~row:0 ~height:1 ~x:18 ~width:4)

let test_occupancy_nearest_free_x () =
  let chip = Chip.make ~num_rows:2 ~num_sites:20 () in
  let occ = Occupancy.create chip in
  Occupancy.occupy occ ~row:0 ~height:1 ~x:8 ~width:4;
  (* want width 3 at x0 = 9: right candidate 12, left candidate 5 *)
  (match Occupancy.nearest_free_x occ ~row:0 ~height:1 ~width:3 ~x0:9 ~max_dist:20 with
  | Some (x, dist) ->
    Alcotest.(check int) "nearest x" 12 x;
    Alcotest.(check int) "distance" 3 dist
  | None -> Alcotest.fail "expected a span");
  (match Occupancy.nearest_free_x occ ~row:0 ~height:1 ~width:3 ~x0:7 ~max_dist:20 with
  | Some (x, _) -> Alcotest.(check int) "left wins" 5 x
  | None -> Alcotest.fail "expected a span");
  Alcotest.(check bool) "max_dist respected" true
    (Occupancy.nearest_free_x occ ~row:0 ~height:1 ~width:3 ~x0:9 ~max_dist:1 = None)

let test_occupancy_find_spot () =
  let chip = Chip.make ~num_rows:4 ~num_sites:10 ~row_height:8.0 () in
  let occ = Occupancy.create chip in
  (* fill row 1 fully; a single-height cell wanting row 1 slides in-row is
     impossible, so it must pay a row hop of 8 *)
  Occupancy.occupy occ ~row:1 ~height:1 ~x:0 ~width:10;
  (match Occupancy.find_spot occ (cell ~id:0 ~w:3 ~h:1 ()) ~row0:1 ~x0:4 with
  | Some (row, x, cost) ->
    Alcotest.(check bool) "adjacent row" true (row = 0 || row = 2);
    Alcotest.(check int) "same x" 4 x;
    Alcotest.(check (float 1e-9)) "cost = row hop" 8.0 cost
  | None -> Alcotest.fail "expected a spot");
  (* a rail-constrained double only fits even rows *)
  let dbl = cell ~rail:Rail.Vss ~id:1 ~w:3 ~h:2 () in
  (match Occupancy.find_spot occ dbl ~row0:0 ~x0:0 with
  | Some (row, _, _) -> Alcotest.(check int) "parity respected" 2 row
  | None -> Alcotest.fail "expected a spot");
  (* window too small -> none *)
  Occupancy.occupy occ ~row:0 ~height:1 ~x:0 ~width:10;
  Alcotest.(check bool) "window miss" true
    (Occupancy.find_spot ~row_window:0 occ (cell ~id:2 ~w:3 ~h:1 ()) ~row0:1 ~x0:0
     = None)

(* ---------- Tetris_alloc ---------- *)

let test_tetris_alloc_noop_when_legal () =
  let d = figure2_design () in
  let input = Placement.make ~xs:[| 1.0; 2.0; 6.0; 8.0; 12.0 |] ~ys:[| 1.0; 0.0; 1.0; 0.0; 1.0 |] in
  let out = Tetris_alloc.run d input in
  Alcotest.(check int) "no illegal cells" 0 out.Tetris_alloc.illegal_before;
  Alcotest.(check bool) "unchanged" true
    (Placement.equal out.Tetris_alloc.placement input)

let test_tetris_alloc_fixes_overlap () =
  let d = figure2_design () in
  (* c2 and c4 overlapping in row 0 *)
  let input = Placement.make ~xs:[| 1.0; 2.0; 6.0; 3.0; 12.0 |] ~ys:[| 1.0; 0.0; 1.0; 0.0; 1.0 |] in
  let out = Tetris_alloc.run d input in
  Alcotest.(check int) "one illegal" 1 out.Tetris_alloc.illegal_before;
  Alcotest.(check bool) "legal output" true
    (Legality.is_legal d out.Tetris_alloc.placement)

let test_tetris_alloc_out_of_boundary () =
  let d = figure2_design () in
  (* c5 pushed beyond the right boundary (chip is 40 sites) *)
  let input = Placement.make ~xs:[| 1.0; 2.0; 6.0; 8.0; 39.5 |] ~ys:[| 1.0; 0.0; 1.0; 0.0; 1.0 |] in
  let out = Tetris_alloc.run d input in
  Alcotest.(check bool) "legal output" true
    (Legality.is_legal d out.Tetris_alloc.placement);
  Alcotest.(check bool) "x within chip" true
    (out.Tetris_alloc.placement.Placement.xs.(4) <= 38.0)

let test_tetris_alloc_fractional_snap () =
  let d = figure2_design () in
  let input = Placement.make ~xs:[| 1.3; 2.4; 6.5; 8.9; 12.1 |] ~ys:[| 1.0; 0.0; 1.0; 0.0; 1.0 |] in
  let out = Tetris_alloc.run d input in
  Alcotest.(check bool) "legal output" true
    (Legality.is_legal d out.Tetris_alloc.placement);
  Alcotest.(check bool) "integral" true
    (Placement.is_integral out.Tetris_alloc.placement)

(* an x with no int (2^62 or more, +inf) or NaN must not snap onto the
   chip: the cell is counted illegal and relocated, never accepted at
   site 0 unseen. Site 0 is free, so a snap onto it would pass the
   acceptance scan. *)
let test_tetris_alloc_non_finite () =
  let d = figure2_design () in
  List.iter
    (fun (name, bad) ->
      let xs = [| 3.0; 2.0; 6.0; 8.0; bad |] in
      let ys = [| 1.0; 0.0; 1.0; 0.0; 1.0 |] in
      let out = Tetris_alloc.run d (Placement.make ~xs ~ys) in
      let pl = out.Tetris_alloc.placement in
      Alcotest.(check int) (name ^ ": counted illegal") 1
        out.Tetris_alloc.illegal_before;
      Alcotest.(check int) (name ^ ": relocated") 1 out.Tetris_alloc.relocated;
      Alcotest.(check (list int)) (name ^ ": none unplaced") []
        out.Tetris_alloc.unplaced;
      Alcotest.(check bool) (name ^ ": legal") true (Legality.is_legal d pl);
      Alcotest.(check bool) (name ^ ": others kept") true
        (Array.for_all Fun.id
           (Array.init 4 (fun i ->
                pl.Placement.xs.(i) = xs.(i) && pl.Placement.ys.(i) = ys.(i))));
      Alcotest.(check bool) (name ^ ": snapped past the chip") true
        (Tetris_alloc.snap_site bad = max_int))
    [ ("9.2e18", 9.2e18); ("1e19", 1e19); ("+inf", infinity);
      ("nan", Float.nan) ];
  (* finite x on either side of the chip keep their old snap *)
  Alcotest.(check (list int)) "finite snaps" [ 0; 0; 0; 3; 40; 4611686018427387392 ]
    (List.map Tetris_alloc.snap_site
       [ neg_infinity; -1e19; -0.4; 2.6; 40.2; 0x1p62 -. 512.0 ])

(* the acceptance order and the whole run against the comparison-sort
   oracle and the old allocator (test/tetris_ref.ml). A draw is a
   generated fft_2 or superblue12 design at 0.01-0.03 with 0-20% blockage
   and 0-40% tall cells, and a relaxed placement near its global one,
   crafted so that every rule of the order decides somewhere: cells
   sharing a snapped site, pairs with equal global x (the id decides),
   cells past the right edge with different overshoots and global x
   against the overshoot order, negative and NaN x, and sometimes a pile
   of cells on one site (a bucket sorted by comparison) *)
let tetris_draw_gen =
  QCheck.(
    pair
      (triple (int_range 1 1000) (int_range 0 20) (int_range 0 40))
      (triple bool (int_range 1 3) bool))

let tetris_draw ((seed, blockage, tall), (large, scale, pile)) =
  let spec = Spec.find (if large then "superblue12" else "fft_2") in
  let d =
    (Generate.generate
       ~options:
         { Generate.default_options with
           seed;
           blockage_fraction = float_of_int blockage /. 100.0;
           tall_cell_fraction = float_of_int tall /. 100.0 }
       (Spec.scaled (float_of_int scale /. 100.0) spec))
      .Generate.design
  in
  let n = Design.num_cells d in
  let num_sites = d.Design.chip.Chip.num_sites in
  let rng = Random.State.make [| seed |] in
  let pick () = Random.State.int rng n in
  let gx = Array.copy d.Design.global.Placement.xs in
  let xs = Array.map (fun x -> x +. Random.State.float rng 4.0 -. 2.0) gx in
  let ys = Array.map float_of_int (Row_assign.assign d).Row_assign.rows in
  for _ = 1 to n / 10 do
    (* the same snapped site as another cell *)
    xs.(pick ()) <-
      Float.round xs.(pick ()) +. Random.State.float rng 0.98 -. 0.49
  done;
  for _ = 1 to n / 20 do
    (* equal global x, and the same site *)
    let a = pick () and b = pick () in
    gx.(a) <- gx.(b);
    xs.(a) <- xs.(b)
  done;
  let a = pick () and b = pick () in
  gx.(a) <- -0.0;
  gx.(b) <- 0.0;
  for k = 1 to 6 do
    (* past the right edge: overshoot rises with k, global x falls *)
    let i = pick () in
    xs.(i) <- float_of_int (num_sites + (3 * k) + Random.State.int rng 3);
    gx.(i) <- float_of_int (num_sites - k)
  done;
  xs.(pick ()) <- -7.3;
  xs.(pick ()) <- -0.4;
  xs.(pick ()) <- Float.nan;
  if pile then begin
    let site = float_of_int (Random.State.int rng num_sites) in
    for _ = 1 to min (n / 2) 300 do
      xs.(pick ()) <- site +. Random.State.float rng 0.9 -. 0.45
    done
  end;
  let d =
    Design.make ~blockages:d.Design.blockages ~name:d.Design.name
      ~chip:d.Design.chip ~cells:d.Design.cells
      ~global:(Placement.make ~xs:gx ~ys:d.Design.global.Placement.ys)
      ~nets:d.Design.nets ()
  in
  (d, Placement.make ~xs ~ys)

let placement_bits (p : Placement.t) =
  Array.map Int64.bits_of_float (Array.append p.Placement.xs p.Placement.ys)

let same_alloc (a : Tetris_alloc.result) (b : Tetris_alloc.result) =
  placement_bits a.Tetris_alloc.placement
  = placement_bits b.Tetris_alloc.placement
  && a.Tetris_alloc.illegal_before = b.Tetris_alloc.illegal_before
  && a.Tetris_alloc.relocated = b.Tetris_alloc.relocated
  && Int64.bits_of_float a.Tetris_alloc.relocation_cost
     = Int64.bits_of_float b.Tetris_alloc.relocation_cost
  && a.Tetris_alloc.repack_fallback = b.Tetris_alloc.repack_fallback
  && a.Tetris_alloc.exact_repacks = b.Tetris_alloc.exact_repacks
  && a.Tetris_alloc.unplaced = b.Tetris_alloc.unplaced

let prop_acceptance_order =
  QCheck.Test.make ~count:20
    ~name:"acceptance order = comparison sort; run = old run, bit for bit"
    tetris_draw_gen (fun draw ->
      let d, relaxed = tetris_draw draw in
      let num_sites = d.Design.chip.Chip.num_sites in
      let sx = Array.map Tetris_alloc.snap_site relaxed.Placement.xs in
      let gx = d.Design.global.Placement.xs in
      Tetris_alloc.acceptance_order ~num_sites ~sx ~gx
      = Tetris_ref.order ~sx ~gx
      && same_alloc (Tetris_alloc.run d relaxed) (Tetris_ref.run d relaxed))

let test_acceptance_order_rejects () =
  Alcotest.check_raises "negative site"
    (Invalid_argument "Tetris_alloc.acceptance_order: negative site")
    (fun () ->
      ignore
        (Tetris_alloc.acceptance_order ~num_sites:4 ~sx:[| 1; -1 |]
           ~gx:[| 0.0; 0.0 |]));
  Alcotest.check_raises "dimension"
    (Invalid_argument "Tetris_alloc.acceptance_order: dimension") (fun () ->
      ignore (Tetris_alloc.acceptance_order ~num_sites:4 ~sx:[| 1 |] ~gx:[||]))

let () =
  Alcotest.run "core"
    [ ("row_assign", [ Alcotest.test_case "nearest correct row" `Quick test_row_assign_nearest ]);
      ( "order",
        [ Alcotest.test_case "per row" `Quick test_order_per_row;
          Alcotest.test_case "preservation metric" `Quick test_order_preservation_metric ] );
      ( "model",
        [ Alcotest.test_case "figure 2 (single height)" `Quick test_model_figure2;
          Alcotest.test_case "figure 3 (mixed height)" `Quick test_model_figure3;
          Alcotest.test_case "Q~ operator" `Quick test_model_apply_q_tilde;
          Alcotest.test_case "packed start feasible" `Quick test_model_packed_start_feasible;
          Alcotest.test_case "cell positions / mismatch" `Quick test_model_cell_positions ] );
      ( "schur",
        [ Alcotest.test_case "SM = exact chains" `Quick test_schur_paths_agree;
          Alcotest.test_case "tridiag of dense" `Quick test_schur_matches_dense;
          Alcotest.test_case "dense vs brute force" `Quick test_schur_dense_vs_bruteforce;
          QCheck_alcotest.to_alcotest prop_schur_matches_lists ] );
      ( "abacus",
        [ Alcotest.test_case "no overlap" `Quick test_place_row_no_overlap;
          Alcotest.test_case "two-cell collapse" `Quick test_place_row_two_cell_collapse;
          Alcotest.test_case "left clamp" `Quick test_place_row_left_clamp;
          Alcotest.test_case "right boundary" `Quick test_place_row_right_boundary;
          Alcotest.test_case "cost" `Quick test_place_row_cost;
          Alcotest.test_case "overflow rejected" `Quick test_place_row_does_not_fit;
          Alcotest.test_case "vs active-set oracle" `Quick test_place_row_vs_oracle ] );
      ( "solver",
        [ Alcotest.test_case "figure 3 vs oracle" `Quick test_solver_oracle_figure3;
          Alcotest.test_case "random mixed vs oracle" `Slow test_solver_oracle_random_mixed;
          Alcotest.test_case "solves the KKT LCP" `Quick test_solver_lcp_solution;
          Alcotest.test_case "theorem 2 bound" `Quick test_solver_bound_check;
          Alcotest.test_case "cross-solver agreement" `Slow test_cross_solver_agreement;
          Alcotest.test_case "in-place = generic" `Quick test_inplace_equals_generic;
          Alcotest.test_case "lambda vs mismatch" `Slow test_solver_mismatch_lambda ] );
      ( "chunks",
        [ QCheck_alcotest.to_alcotest prop_chunk_plan;
          Alcotest.test_case "iterates bit-identical" `Quick
            test_chunked_iterates_bit_identical;
          Alcotest.test_case "groupings = reference" `Quick test_chunk_groupings;
          Alcotest.test_case "Thomas segment starts" `Quick
            test_thomas_segment_starts ] );
      ( "warm_start",
        [ Alcotest.test_case "exact on single height" `Quick test_warm_start_single_height_exact;
          Alcotest.test_case "multipliers nonnegative" `Quick test_warm_start_multipliers_nonnegative ] );
      ( "occupancy",
        [ Alcotest.test_case "basics" `Quick test_occupancy_basics;
          Alcotest.test_case "nearest free x" `Quick test_occupancy_nearest_free_x;
          Alcotest.test_case "find spot" `Quick test_occupancy_find_spot ] );
      ( "tetris_alloc",
        [ Alcotest.test_case "no-op when legal" `Quick test_tetris_alloc_noop_when_legal;
          Alcotest.test_case "fixes overlap" `Quick test_tetris_alloc_fixes_overlap;
          Alcotest.test_case "out of boundary" `Quick test_tetris_alloc_out_of_boundary;
          Alcotest.test_case "fractional snap" `Quick test_tetris_alloc_fractional_snap;
          Alcotest.test_case "non-finite x relocated" `Quick
            test_tetris_alloc_non_finite;
          QCheck_alcotest.to_alcotest prop_acceptance_order;
          Alcotest.test_case "acceptance order rejects" `Quick
            test_acceptance_order_rejects ] ) ]
