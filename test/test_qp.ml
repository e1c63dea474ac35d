(* Tests for the QP machinery: problem records, the KKT -> LCP conversion
   (Theorem 1), and the dense active-set oracle. *)

open Mclh_linalg
open Mclh_qp
open Oracle

let mk_rand seed =
  let state = ref seed in
  fun () ->
    state := (!state * 1103515245) + 12345;
    float_of_int (!state land 0xFFFFFF) /. float_of_int 0xFFFFFF

(* the paper's Figure 2 instance: five unit-weight cells in two rows.
   row 1: c2 (w=3) then c4; row 2: c1 (w=2) then c3 (w=4) then c5 *)
let figure2_qp ~targets =
  let n = 5 in
  let q_mat = Csr.identity n in
  let p = Vec.init n (fun i -> -.targets.(i)) in
  let coo = Coo.create ~rows:3 ~cols:n in
  (* x4 - x2 >= w2; x3 - x1 >= w1; x5 - x3 >= w3 (matrix B of the paper) *)
  Coo.add coo 0 1 (-1.0);
  Coo.add coo 0 3 1.0;
  Coo.add coo 1 0 (-1.0);
  Coo.add coo 1 2 1.0;
  Coo.add coo 2 2 (-1.0);
  Coo.add coo 2 4 1.0;
  let b_mat = Coo.to_csr coo in
  let b_rhs = Vec.of_list [ 3.0; 2.0; 4.0 ] in
  Qp.make ~q_mat ~p ~b_mat ~b_rhs

let test_objective_gradient () =
  let qp = figure2_qp ~targets:[| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let x = Vec.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  (* at the targets the gradient is zero and the objective is -||t||^2/2 *)
  Alcotest.(check (float 1e-9)) "gradient at optimum" 0.0
    (Vec.norm_inf (Qp.gradient qp x));
  Alcotest.(check (float 1e-9)) "objective" (-27.5) (Qp.objective qp x)

let test_feasibility () =
  let qp = figure2_qp ~targets:[| 0.0; 0.0; 0.0; 0.0; 0.0 |] in
  let x_ok = Vec.of_list [ 0.0; 0.0; 2.0; 3.0; 6.0 ] in
  Alcotest.(check bool) "feasible" true (Qp.is_feasible qp x_ok);
  let x_bad = Vec.of_list [ 0.0; 0.0; 1.0; 3.0; 6.0 ] in
  Alcotest.(check bool) "infeasible" false (Qp.is_feasible qp x_bad);
  Alcotest.(check (float 1e-9))
    "violation magnitude" 1.0
    (Qp.constraint_violation qp x_bad)

let test_kkt_structure () =
  (* the assembled LCP matrix must be [[Q, -B^T], [B, 0]] *)
  let qp = figure2_qp ~targets:[| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let lcp = Kkt.to_lcp qp in
  let a = Mclh_lcp.Lcp.(lcp.a) in
  Alcotest.(check int) "dimension" 8 (Csr.rows a);
  (* spot checks: Q block diagonal of ones *)
  Alcotest.(check (float 0.0)) "Q diag" 1.0 (Csr.get a 0 0);
  (* B in the bottom-left: row 5 is constraint 0 = (-1 at col 1, +1 at col 3) *)
  Alcotest.(check (float 0.0)) "B entry" (-1.0) (Csr.get a 5 1);
  Alcotest.(check (float 0.0)) "B entry +" 1.0 (Csr.get a 5 3);
  (* -B^T in the top-right *)
  Alcotest.(check (float 0.0)) "-B^T entry" 1.0 (Csr.get a 1 5);
  Alcotest.(check (float 0.0)) "-B^T entry -" (-1.0) (Csr.get a 3 5);
  (* bottom-right zero block *)
  Alcotest.(check (float 0.0)) "zero block" 0.0 (Csr.get a 6 7);
  (* q = (p; -b) *)
  Alcotest.(check (float 0.0)) "q top" (-1.0) Mclh_lcp.Lcp.(lcp.q).(0);
  Alcotest.(check (float 0.0)) "q bottom" (-3.0) Mclh_lcp.Lcp.(lcp.q).(5)

let test_active_set_unconstrained () =
  (* targets already feasible and interior: optimum = targets *)
  let targets = [| 1.0; 2.0; 10.0; 14.0; 20.0 |] in
  let qp = figure2_qp ~targets in
  let out = Active_set.solve ~x0:(Vec.of_list [ 1.0; 2.0; 10.0; 14.0; 20.0 ]) qp in
  Alcotest.(check bool) "converged" true out.Active_set.converged;
  Alcotest.(check bool)
    "x = targets" true
    (Vec.equal ~eps:1e-9 out.Active_set.x (Vec.of_list (Array.to_list targets)))

let test_active_set_two_cell_overlap () =
  (* two cells in one row, both targeting the same spot: the optimum splits
     the separation evenly *)
  let q_mat = Csr.identity 2 in
  let p = Vec.of_list [ -10.0; -10.0 ] in
  let coo = Coo.create ~rows:1 ~cols:2 in
  Coo.add coo 0 0 (-1.0);
  Coo.add coo 0 1 1.0;
  let qp =
    Qp.make ~q_mat ~p ~b_mat:(Coo.to_csr coo) ~b_rhs:(Vec.of_list [ 4.0 ])
  in
  let out = Active_set.solve ~x0:(Vec.of_list [ 0.0; 4.0 ]) qp in
  Alcotest.(check bool) "converged" true out.Active_set.converged;
  Alcotest.(check bool)
    "split evenly" true
    (Vec.equal ~eps:1e-8 out.Active_set.x (Vec.of_list [ 8.0; 12.0 ]));
  Alcotest.(check bool)
    "positive multiplier" true
    (out.Active_set.multipliers.(0) > 0.0)

let test_active_set_bound_clamp () =
  (* one cell targeting a negative position clamps at zero with a positive
     bound multiplier *)
  let qp =
    Qp.make ~q_mat:(Csr.identity 1) ~p:(Vec.of_list [ 5.0 ])
      ~b_mat:(Csr.empty ~rows:0 ~cols:1) ~b_rhs:[||]
  in
  let out = Active_set.solve ~x0:(Vec.of_list [ 1.0 ]) qp in
  Alcotest.(check (float 1e-9)) "clamped" 0.0 out.Active_set.x.(0);
  Alcotest.(check (float 1e-9)) "bound multiplier" 5.0 out.Active_set.bound_multipliers.(0)

let test_active_set_kkt_residual () =
  let rand = mk_rand 5 in
  for _ = 1 to 12 do
    (* random chain QP: k cells in one row, random targets and widths *)
    let k = 2 + int_of_float (rand () *. 6.0) in
    let widths = Array.init k (fun _ -> 1.0 +. (rand () *. 5.0)) in
    let targets = Array.init k (fun _ -> rand () *. 30.0) in
    Array.sort compare targets;
    let coo = Coo.create ~rows:(k - 1) ~cols:k in
    for i = 0 to k - 2 do
      Coo.add coo i i (-1.0);
      Coo.add coo i (i + 1) 1.0
    done;
    let qp =
      Qp.make ~q_mat:(Csr.identity k)
        ~p:(Vec.init k (fun i -> -.targets.(i)))
        ~b_mat:(Coo.to_csr coo)
        ~b_rhs:(Vec.init (k - 1) (fun i -> widths.(i)))
    in
    (* packed start is always feasible *)
    let x0 = Array.make k 0.0 in
    for i = 1 to k - 1 do
      x0.(i) <- x0.(i - 1) +. widths.(i - 1)
    done;
    let out = Active_set.solve ~x0 qp in
    Alcotest.(check bool) "converged" true out.Active_set.converged;
    let res =
      Kkt.kkt_residual qp ~x:out.Active_set.x ~r:out.Active_set.multipliers
    in
    if res > 1e-6 then Alcotest.failf "KKT residual %g too large" res
  done

let test_feasible_start () =
  let qp = figure2_qp ~targets:[| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  match Active_set.feasible_start qp with
  | Some x -> Alcotest.(check bool) "feasible" true (Qp.is_feasible qp x)
  | None -> Alcotest.fail "expected a feasible start"

let test_active_set_rejects_infeasible_start () =
  let qp = figure2_qp ~targets:[| 0.0; 0.0; 0.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Active_set.solve ~x0:(Vec.zeros 5) qp);
       false
     with Invalid_argument _ -> true)


(* ---------- interior-point method ---------- *)

let chain_qp rand k =
  let widths = Array.init k (fun _ -> 1.0 +. (rand () *. 4.0)) in
  let targets = Array.init k (fun _ -> rand () *. 25.0) in
  Array.sort compare targets;
  let coo = Coo.create ~rows:(k - 1) ~cols:k in
  for i = 0 to k - 2 do
    Coo.add coo i i (-1.0);
    Coo.add coo i (i + 1) 1.0
  done;
  let qp =
    Qp.make ~q_mat:(Csr.identity k)
      ~p:(Vec.init k (fun i -> -.targets.(i)))
      ~b_mat:(Coo.to_csr coo)
      ~b_rhs:(Vec.init (k - 1) (fun i -> widths.(i)))
  in
  let x0 = Array.make k 0.0 in
  for i = 1 to k - 1 do
    x0.(i) <- x0.(i - 1) +. widths.(i - 1)
  done;
  (qp, x0)

let test_ipm_matches_active_set () =
  let rand = mk_rand 61 in
  for _ = 1 to 12 do
    let k = 2 + int_of_float (rand () *. 8.0) in
    let qp, x0 = chain_qp rand k in
    let ipm = Ipm.solve qp in
    let asq = Active_set.solve ~x0 qp in
    Alcotest.(check bool) "both converged" true
      (ipm.Ipm.converged && asq.Active_set.converged);
    if Vec.dist_inf ipm.Ipm.x asq.Active_set.x > 1e-5 then
      Alcotest.failf "IPM vs active-set disagree by %g"
        (Vec.dist_inf ipm.Ipm.x asq.Active_set.x)
  done

let test_ipm_kkt_residual () =
  let rand = mk_rand 67 in
  let qp, _ = chain_qp rand 7 in
  let ipm = Ipm.solve qp in
  let res = Kkt.kkt_residual qp ~x:ipm.Ipm.x ~r:ipm.Ipm.multipliers in
  if res > 1e-5 then Alcotest.failf "IPM KKT residual %g" res

let test_ipm_infeasible_start_ok () =
  (* unlike the active-set oracle, the IPM needs no feasible x0; the
     all-ones interior start is infeasible for this instance *)
  let rand = mk_rand 71 in
  let qp, x0 = chain_qp rand 5 in
  Alcotest.(check bool) "x0=1 infeasible" false
    (Qp.is_feasible qp (Vec.create 5 1.0));
  let ipm = Ipm.solve qp in
  Alcotest.(check bool) "converged anyway" true ipm.Ipm.converged;
  let asq = Active_set.solve ~x0 qp in
  Alcotest.(check bool) "same optimum" true
    (Vec.equal ~eps:1e-5 ipm.Ipm.x asq.Active_set.x)

let test_ipm_degenerate_chain () =
  (* regression: this instance (k = 8, QCheck seed 7411) drives the IPM
     to a numerically singular normal matrix late in the solve; the
     escalating diagonal regularization must carry it to the optimum
     instead of raising Lu.Singular *)
  let rand = mk_rand (7411 + 13) in
  let qp, x0 = chain_qp rand 8 in
  let ipm = Ipm.solve qp in
  Alcotest.(check bool) "converged" true ipm.Ipm.converged;
  let asq = Active_set.solve ~x0 qp in
  Alcotest.(check bool) "matches active set" true
    (Vec.dist_inf ipm.Ipm.x asq.Active_set.x < 1e-5)

let qc_ipm_random_chains =
  QCheck.Test.make ~count:40 ~name:"ipm: random chain QPs match active set"
    QCheck.(pair (int_range 2 9) (int_range 0 10_000))
    (fun (k, seed) ->
      let rand = mk_rand (seed + 13) in
      let qp, x0 = chain_qp rand k in
      let ipm = Ipm.solve qp in
      let asq = Active_set.solve ~x0 qp in
      ipm.Ipm.converged && asq.Active_set.converged
      && Vec.dist_inf ipm.Ipm.x asq.Active_set.x < 1e-5)

let qc_active_set_beats_random_feasible =
  QCheck.Test.make ~count:50
    ~name:"active_set: optimum not worse than random feasible points"
    QCheck.(pair (int_range 2 7) (int_range 0 10_000))
    (fun (k, seed) ->
      let rand = mk_rand (seed + 11) in
      let widths = Array.init k (fun _ -> 1.0 +. (rand () *. 4.0)) in
      let targets = Array.init k (fun _ -> rand () *. 25.0) in
      Array.sort compare targets;
      let coo = Coo.create ~rows:(k - 1) ~cols:k in
      for i = 0 to k - 2 do
        Coo.add coo i i (-1.0);
        Coo.add coo i (i + 1) 1.0
      done;
      let qp =
        Qp.make ~q_mat:(Csr.identity k)
          ~p:(Vec.init k (fun i -> -.targets.(i)))
          ~b_mat:(Coo.to_csr coo)
          ~b_rhs:(Vec.init (k - 1) (fun i -> widths.(i)))
      in
      let x0 = Array.make k 0.0 in
      for i = 1 to k - 1 do
        x0.(i) <- x0.(i - 1) +. widths.(i - 1)
      done;
      let out = Active_set.solve ~x0 qp in
      let opt = Qp.objective qp out.Active_set.x in
      (* sample feasible points: packed with random base offsets *)
      let ok = ref out.Active_set.converged in
      for _ = 1 to 10 do
        let base = rand () *. 20.0 in
        let x = Array.map (fun v -> v +. base) x0 in
        if Qp.is_feasible qp x && Qp.objective qp x < opt -. 1e-7 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "qp"
    [ ( "problem",
        [ Alcotest.test_case "objective/gradient" `Quick test_objective_gradient;
          Alcotest.test_case "feasibility" `Quick test_feasibility ] );
      ("kkt", [ Alcotest.test_case "figure 2 structure" `Quick test_kkt_structure ]);
      ( "active_set",
        [ Alcotest.test_case "unconstrained" `Quick test_active_set_unconstrained;
          Alcotest.test_case "two-cell overlap" `Quick test_active_set_two_cell_overlap;
          Alcotest.test_case "bound clamp" `Quick test_active_set_bound_clamp;
          Alcotest.test_case "random chains KKT" `Quick test_active_set_kkt_residual;
          Alcotest.test_case "feasible start" `Quick test_feasible_start;
          Alcotest.test_case "rejects infeasible x0" `Quick
            test_active_set_rejects_infeasible_start ] );
      ( "ipm",
        [ Alcotest.test_case "matches active set" `Quick test_ipm_matches_active_set;
          Alcotest.test_case "KKT residual" `Quick test_ipm_kkt_residual;
          Alcotest.test_case "infeasible start" `Quick test_ipm_infeasible_start_ok;
          Alcotest.test_case "degenerate chain regression" `Quick
            test_ipm_degenerate_chain ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qc_active_set_beats_random_feasible; qc_ipm_random_chains ] ) ]
