(* Tests for the LCP machinery: residuals, the generic MMSIM, and the
   projected Gauss-Seidel reference solver. *)

open Mclh_linalg
open Mclh_lcp
open Oracle

let mk_rand seed =
  let state = ref seed in
  fun () ->
    state := (!state * 1103515245) + 12345;
    float_of_int (!state land 0xFFFFFF) /. float_of_int 0xFFFFFF

(* random SPD matrix A = M^T M + n I as CSR, with q *)
let random_spd_lcp rand n =
  let m = Dense.init n n (fun _ _ -> rand () -. 0.5) in
  let a = Dense.gram m in
  for i = 0 to n - 1 do
    Dense.set a i i (Dense.get a i i +. 1.0)
  done;
  let q = Vec.init n (fun _ -> (rand () *. 4.0) -. 2.0) in
  Lcp.of_dense a q

let test_residual_known_solution () =
  (* A = I, q = (-1, 2): solution z = (1, 0), w = (0, 2) *)
  let p = Lcp.of_dense (Dense.identity 2) (Vec.of_list [ -1.0; 2.0 ]) in
  let z = Vec.of_list [ 1.0; 0.0 ] in
  Alcotest.(check bool) "solution accepted" true (Lcp.is_solution p z);
  let r = Lcp.residual p z in
  Alcotest.(check (float 1e-12)) "fb residual" 0.0 r.Lcp.fischer_burmeister;
  let bad = Vec.of_list [ 0.0; 0.0 ] in
  Alcotest.(check bool) "non-solution rejected" false (Lcp.is_solution p bad)

let test_residual_components () =
  let p = Lcp.of_dense (Dense.identity 2) (Vec.of_list [ 0.0; 0.0 ]) in
  let z = Vec.of_list [ -1.0; 2.0 ] in
  let r = Lcp.residual p z in
  Alcotest.(check (float 1e-12)) "z_neg" 1.0 r.Lcp.z_neg;
  Alcotest.(check (float 1e-12)) "w_neg" 1.0 r.Lcp.w_neg;
  Alcotest.(check (float 1e-12)) "complementarity" 4.0 r.Lcp.complementarity

let test_mmsim_gauss_seidel_solves () =
  let rand = mk_rand 3 in
  List.iter
    (fun n ->
      let p = random_spd_lcp rand n in
      let ops = Gauss_seidel.operators p.Lcp.a in
      let out = Mmsim.solve ops ~q:p.Lcp.q in
      Alcotest.(check bool)
        (Printf.sprintf "converged n=%d" n)
        true out.Mmsim.converged;
      if Lcp.residual_inf p out.Mmsim.z > 1e-6 then
        Alcotest.failf "MMSIM residual too large at n = %d: %g" n
          (Lcp.residual_inf p out.Mmsim.z))
    [ 1; 2; 5; 10; 25 ]

let test_mmsim_agrees_with_pgs () =
  let rand = mk_rand 17 in
  for _ = 1 to 10 do
    let n = 3 + int_of_float (rand () *. 10.0) in
    let p = random_spd_lcp rand n in
    let ops = Gauss_seidel.operators p.Lcp.a in
    let mm = Mmsim.solve ops ~q:p.Lcp.q in
    let pg = Pgs.solve p in
    Alcotest.(check bool) "pgs converged" true pg.Pgs.converged;
    if Vec.dist_inf mm.Mmsim.z pg.Pgs.z > 1e-5 then
      Alcotest.failf "MMSIM and PGS disagree: %g"
        (Vec.dist_inf mm.Mmsim.z pg.Pgs.z)
  done

let test_mmsim_complementary_w () =
  let rand = mk_rand 23 in
  let p = random_spd_lcp rand 8 in
  let ops = Gauss_seidel.operators p.Lcp.a in
  let options = Mmsim.default_options in
  let out = Mmsim.solve ~options ops ~q:p.Lcp.q in
  let w = Mmsim.w_of_s ops out.Mmsim.s in
  (* the modulus construction gives exact complementarity *)
  Array.iteri
    (fun i wi ->
      if Float.abs (wi *. out.Mmsim.z.(i)) > 1e-9 then
        Alcotest.failf "complementarity violated at %d" i)
    w

let test_mmsim_warm_start_at_solution () =
  let rand = mk_rand 37 in
  let p = random_spd_lcp rand 8 in
  let ops = Gauss_seidel.operators p.Lcp.a in
  let options = Mmsim.default_options in
  let first = Mmsim.solve ~options ops ~q:p.Lcp.q in
  let second = Mmsim.solve ~options ~s0:first.Mmsim.s ops ~q:p.Lcp.q in
  Alcotest.(check bool)
    "restart converges immediately" true
    (second.Mmsim.iterations <= 2)

let test_mmsim_validation () =
  let p = random_spd_lcp (mk_rand 1) 3 in
  let ops = Gauss_seidel.operators p.Lcp.a in
  Alcotest.(check bool) "bad q dim" true
    (try
       ignore (Mmsim.solve ops ~q:(Vec.zeros 7));
       false
     with Invalid_argument _ -> true);
  (* NaN passes a [<= 0.0] test: without the finiteness check, eps = nan
     ran the whole budget, eps = infinity "converged" after one iteration
     at a non-solution *)
  let p = Lcp.of_dense (Dense.scale 2.0 (Dense.identity 2)) (Vec.of_list [ -1.0; 1.0 ]) in
  let ops = Gauss_seidel.operators p.Lcp.a in
  List.iter
    (fun (name, options) ->
      Alcotest.(check bool) name true
        (try
           ignore (Mmsim.solve ~options ops ~q:p.Lcp.q);
           false
         with Invalid_argument _ -> true))
    [ ("nan eps", { Mmsim.default_options with eps = Float.nan });
      ("infinite eps", { Mmsim.default_options with eps = Float.infinity }) ]

let test_mmsim_stalled_z_regression () =
  (* regression: z can sit at 0 for an iteration while s still moves; the
     paper's z-change-only criterion declares victory at a non-solution.
     Found by qcheck on (n = 2, seed = 3177). *)
  let a =
    Dense.of_arrays
      [| [| 1.26359; -0.216442 |]; [| -0.216442; 1.21613 |] |]
  in
  let p = Lcp.of_dense a (Vec.of_list [ 1.33375; -0.0748509 ]) in
  let ops = Gauss_seidel.operators p.Lcp.a in
  let out = Mmsim.solve ops ~q:p.Lcp.q in
  Alcotest.(check bool) "converged" true out.Mmsim.converged;
  Alcotest.(check bool) "to an actual solution" true
    (Lcp.residual_inf p out.Mmsim.z < 1e-6);
  Alcotest.(check bool) "z2 positive" true (out.Mmsim.z.(1) > 0.05)

let test_gs_operators_validation () =
  let bad = Coo.create ~rows:2 ~cols:2 in
  Coo.add bad 0 1 1.0;
  Coo.add bad 1 0 1.0;
  (* zero diagonal *)
  Alcotest.(check bool) "zero diagonal rejected" true
    (try
       ignore (Gauss_seidel.operators (Coo.to_csr bad));
       false
     with Invalid_argument _ -> true)

let test_pgs_relaxation () =
  let rand = mk_rand 41 in
  let p = random_spd_lcp rand 10 in
  let plain = Pgs.solve p in
  let sor =
    Pgs.solve ~options:{ Pgs.default_options with relaxation = 1.4 } p
  in
  Alcotest.(check bool) "sor converged" true sor.Pgs.converged;
  Alcotest.(check bool)
    "same solution" true
    (Vec.equal ~eps:1e-6 plain.Pgs.z sor.Pgs.z)

let test_pgs_validation () =
  let p = random_spd_lcp (mk_rand 2) 3 in
  Alcotest.(check bool) "relaxation bound" true
    (try
       ignore (Pgs.solve ~options:{ Pgs.default_options with relaxation = 2.5 } p);
       false
     with Invalid_argument _ -> true)


(* ---------- Lemke ---------- *)

let test_lemke_trivial () =
  (* q >= 0: z = 0 *)
  let p = Lcp.of_dense (Dense.identity 3) (Vec.of_list [ 1.0; 0.5; 2.0 ]) in
  match Lemke.solve p with
  | Lemke.Solution z -> Alcotest.(check bool) "zero" true (Vec.norm_inf z = 0.0)
  | Lemke.Ray_termination | Lemke.Iteration_limit -> Alcotest.fail "expected solution"

let test_lemke_known () =
  (* A = I, q = (-1, 2): z = (1, 0) *)
  let p = Lcp.of_dense (Dense.identity 2) (Vec.of_list [ -1.0; 2.0 ]) in
  match Lemke.solve p with
  | Lemke.Solution z ->
    Alcotest.(check bool) "z = (1,0)" true
      (Vec.equal ~eps:1e-8 z (Vec.of_list [ 1.0; 0.0 ]))
  | Lemke.Ray_termination | Lemke.Iteration_limit -> Alcotest.fail "expected solution"

let test_lemke_vs_pgs_random_spd () =
  let rand = mk_rand 53 in
  for _ = 1 to 15 do
    let n = 2 + int_of_float (rand () *. 12.0) in
    let p = random_spd_lcp rand n in
    match Lemke.solve p with
    | Lemke.Solution z ->
      if Lcp.residual_inf p z > 1e-6 then
        Alcotest.failf "Lemke residual %g" (Lcp.residual_inf p z);
      let pg = Pgs.solve p in
      if Vec.dist_inf z pg.Pgs.z > 1e-5 then
        Alcotest.failf "Lemke vs PGS disagree by %g" (Vec.dist_inf z pg.Pgs.z)
    | Lemke.Ray_termination | Lemke.Iteration_limit ->
      Alcotest.fail "Lemke failed on an SPD LCP"
  done

let test_lemke_infeasible_ray () =
  (* A = 0 (copositive), q with a negative entry: w = q cannot be >= 0,
     no solution exists; Lemke must terminate on a ray, not loop *)
  let zero = Dense.create 2 2 in
  let p = Lcp.of_dense zero (Vec.of_list [ -1.0; 1.0 ]) in
  match Lemke.solve p with
  | Lemke.Ray_termination -> ()
  | Lemke.Solution _ -> Alcotest.fail "no solution exists"
  | Lemke.Iteration_limit -> Alcotest.fail "should detect the ray"

let qc_lemke_random_spd =
  QCheck.Test.make ~count:40 ~name:"lemke: random SPD LCPs solved"
    QCheck.(pair (int_range 1 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 7) in
      let p = random_spd_lcp rand n in
      match Lemke.solve p with
      | Lemke.Solution z -> Lcp.residual_inf p z < 1e-6
      | Lemke.Ray_termination | Lemke.Iteration_limit -> false)

let qc_mmsim_random_spd =
  QCheck.Test.make ~count:60 ~name:"mmsim: random SPD LCPs solved"
    QCheck.(pair (int_range 1 15) (int_range 0 10_000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 1) in
      let p = random_spd_lcp rand n in
      let ops = Gauss_seidel.operators p.Lcp.a in
      (* ill-conditioned draws converge slowly under the GS splitting:
         give the iteration room, then judge by the residual *)
      let options = { Mmsim.default_options with max_iter = 500_000 } in
      let out = Mmsim.solve ~options ops ~q:p.Lcp.q in
      Lcp.residual_inf p out.Mmsim.z < 1e-5)

let qc_mmsim_adversarial_s0_same_fixed_point =
  (* the modulus fixed point is unique for SPD splittings, so *any* start
     vector — including large adversarial ones — must land on the same
     solution as the cold (zero) start *)
  QCheck.Test.make ~count:60
    ~name:"mmsim: adversarial s0 reaches the cold fixed point"
    QCheck.(triple (int_range 1 12) (int_range 0 10_000) (float_range (-1000.0) 1000.0))
    (fun (n, seed, magnitude) ->
      let rand = mk_rand (seed + 11) in
      let p = random_spd_lcp rand n in
      let ops = Gauss_seidel.operators p.Lcp.a in
      let options = { Mmsim.default_options with max_iter = 500_000 } in
      let cold = Mmsim.solve ~options ops ~q:p.Lcp.q in
      let s0 =
        Vec.init n (fun _ -> magnitude *. ((rand () *. 2.0) -. 1.0))
      in
      let warm = Mmsim.solve ~options ~s0 ops ~q:p.Lcp.q in
      warm.Mmsim.converged
      && Lcp.residual_inf p warm.Mmsim.z < 1e-5
      && Vec.equal ~eps:1e-4 cold.Mmsim.z warm.Mmsim.z)

let qc_mmsim_warm_start_reduces_iterations =
  (* s0 = the previous solve's final modulus on a slightly perturbed
     problem must not iterate more than the cold start — and strictly
     less whenever the cold solve does real work *)
  QCheck.Test.make ~count:40
    ~name:"mmsim: previous-s warm start reduces iterations on a perturbed LCP"
    QCheck.(pair (int_range 2 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 13) in
      let p = random_spd_lcp rand n in
      let ops = Gauss_seidel.operators p.Lcp.a in
      let options = { Mmsim.default_options with max_iter = 500_000 } in
      let first = Mmsim.solve ~options ops ~q:p.Lcp.q in
      (* perturb the linear term by ~0.1% of its magnitude *)
      let q' =
        Vec.init n (fun i ->
            p.Lcp.q.(i) +. (1e-3 *. ((rand () *. 2.0) -. 1.0)))
      in
      let cold = Mmsim.solve ~options ops ~q:q' in
      let warm = Mmsim.solve ~options ~s0:first.Mmsim.s ops ~q:q' in
      warm.Mmsim.converged
      && Vec.equal ~eps:1e-4 cold.Mmsim.z warm.Mmsim.z
      &&
      (* tiny instances can converge in a step or two either way; the
         strict reduction is required once the cold start does real
         work *)
      if cold.Mmsim.iterations <= 3 then
        warm.Mmsim.iterations <= cold.Mmsim.iterations
      else warm.Mmsim.iterations < cold.Mmsim.iterations)

(* every field of two outcomes equal, the vectors bit for bit *)
let bit_identical (a : Mmsim.outcome) (b : Mmsim.outcome) =
  let same_bits x y =
    Array.for_all2
      (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
      x y
  in
  a.Mmsim.iterations = b.Mmsim.iterations
  && a.Mmsim.converged = b.Mmsim.converged
  && Float.equal a.Mmsim.delta_inf b.Mmsim.delta_inf
  && same_bits a.Mmsim.z b.Mmsim.z
  && same_bits a.Mmsim.s b.Mmsim.s

let qc_accel_matches_reference =
  (* the cached-Gram Anderson step against the full per-step recompute
     (Mmsim_ref): bit-identical iterates at every depth, on truncated and
     full budgets. Dimensions below the depth make the Gram matrix
     rank-deficient; start magnitudes up to 1e200 overflow it, so the
     non-finite and coefficient-limit resets run and the history refills
     after them. *)
  QCheck.Test.make ~count:200
    ~name:"mmsim: cached-Gram Anderson step = full recompute, bit for bit"
    QCheck.(
      quad (int_range 1 12) (int_range 0 10_000) (int_range 1 8)
        (pair (option (int_range 1 60)) (int_range 0 200)))
    (fun (n, seed, accel, (budget, magnitude)) ->
      let rand = mk_rand (seed + 31) in
      let p = random_spd_lcp rand n in
      let ops = Gauss_seidel.operators p.Lcp.a in
      let max_iter = Option.value budget ~default:100_000 in
      let options = { Mmsim.default_options with max_iter; accel } in
      let scale = 10.0 ** float_of_int magnitude in
      let s0 = Vec.init n (fun _ -> scale *. ((rand () *. 2.0) -. 1.0)) in
      let fast = Mmsim.solve ~options ~s0 ops ~q:p.Lcp.q in
      let reference, _ = Mmsim_ref.solve ~options ~s0 ops ~q:p.Lcp.q in
      bit_identical fast reference)

let test_accel_reset_matches_reference () =
  (* a start whose differences square to infinity makes the first
     extrapolations non-finite: the history resets, then refills *)
  let p = random_spd_lcp (mk_rand 5) 3 in
  let ops = Gauss_seidel.operators p.Lcp.a in
  let options = { Mmsim.default_options with accel = 8 } in
  let s0 = Vec.of_list [ 1e160; -3e160; 2e160 ] in
  let fast = Mmsim.solve ~options ~s0 ops ~q:p.Lcp.q in
  let reference, resets = Mmsim_ref.solve ~options ~s0 ops ~q:p.Lcp.q in
  Alcotest.(check bool) "the history resets" true (resets <> []);
  Alcotest.(check bool) "converged" true fast.Mmsim.converged;
  Alcotest.(check bool) "bit-identical to the full recompute" true
    (bit_identical fast reference)

let test_accel_kkt_matches_reference () =
  (* a real legalization KKT system, solved the way the solver runs a shard:
     depth 8, the accelerated splitting (beta = 1.0, theta = 0.4), the
     PlaceRow warm start and the default budget; then past convergence
     into the noise floor *)
  let open Mclh_core in
  let d =
    (Mclh_benchgen.Generate.generate
       (Mclh_benchgen.Spec.scaled 0.01 (Mclh_benchgen.Spec.find "fft_2")))
      .Mclh_benchgen.Generate.design
  in
  let model = Model.build d (Row_assign.assign d) in
  let config = { Config.default with beta = 1.0; theta = 0.4 } in
  let ops = Solver.operators model config in
  let q = Solver.rhs_q model in
  let s0 = Warm_start.modulus_vector model ops in
  List.iter
    (fun (name, eps, max_iter) ->
      let options = { Mmsim.eps; max_iter; accel = 8 } in
      let fast = Mmsim.solve ~options ~s0 ops ~q in
      let reference, _ = Mmsim_ref.solve ~options ~s0 ops ~q in
      Alcotest.(check bool) (name ^ ": bit-identical to the full recompute") true
        (bit_identical fast reference))
    [ ("as the solver runs it", config.Config.eps, config.Config.max_iter);
      ("400 iterations at eps 1e-300", 1e-300, 400) ]

let qc_mmsim_accel_same_fixed_point =
  (* Anderson acceleration changes the path, never the destination: the
     accelerated solve must land on the plain fixed point *)
  QCheck.Test.make ~count:60
    ~name:"mmsim: accelerated solve reaches the plain fixed point"
    QCheck.(pair (int_range 1 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 19) in
      let p = random_spd_lcp rand n in
      let ops = Gauss_seidel.operators p.Lcp.a in
      let plain =
        Mmsim.solve
          ~options:{ Mmsim.default_options with max_iter = 500_000 }
          ops ~q:p.Lcp.q
      in
      let accel =
        Mmsim.solve
          ~options:{ Mmsim.default_options with max_iter = 500_000; accel = 8 }
          ops ~q:p.Lcp.q
      in
      accel.Mmsim.converged
      && Lcp.residual_inf p accel.Mmsim.z < 1e-5
      && Vec.equal ~eps:1e-5 plain.Mmsim.z accel.Mmsim.z)

let qc_pgs_random_spd =
  QCheck.Test.make ~count:60 ~name:"pgs: random SPD LCPs solved"
    QCheck.(pair (int_range 1 15) (int_range 0 10_000))
    (fun (n, seed) ->
      let rand = mk_rand (seed + 2) in
      let p = random_spd_lcp rand n in
      let options = { Pgs.default_options with max_iter = 500_000 } in
      let out = Pgs.solve ~options p in
      Lcp.residual_inf p out.Pgs.z < 1e-5)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ qc_mmsim_random_spd;
        qc_mmsim_adversarial_s0_same_fixed_point;
        qc_mmsim_warm_start_reduces_iterations;
        qc_mmsim_accel_same_fixed_point;
        qc_accel_matches_reference;
        qc_pgs_random_spd;
        qc_lemke_random_spd ]
  in
  Alcotest.run "lcp"
    [ ( "residuals",
        [ Alcotest.test_case "known solution" `Quick test_residual_known_solution;
          Alcotest.test_case "components" `Quick test_residual_components ] );
      ( "mmsim",
        [ Alcotest.test_case "solves SPD LCPs" `Quick test_mmsim_gauss_seidel_solves;
          Alcotest.test_case "agrees with PGS" `Quick test_mmsim_agrees_with_pgs;
          Alcotest.test_case "complementary w" `Quick test_mmsim_complementary_w;
          Alcotest.test_case "warm restart" `Quick test_mmsim_warm_start_at_solution;
          Alcotest.test_case "validation" `Quick test_mmsim_validation;
          Alcotest.test_case "stalled-z regression" `Quick test_mmsim_stalled_z_regression;
          Alcotest.test_case "gs operator validation" `Quick test_gs_operators_validation ] );
      ( "anderson",
        [ Alcotest.test_case "reset and refill" `Quick test_accel_reset_matches_reference;
          Alcotest.test_case "fft_2 KKT system" `Quick test_accel_kkt_matches_reference ] );
      ( "pgs",
        [ Alcotest.test_case "relaxation" `Quick test_pgs_relaxation;
          Alcotest.test_case "validation" `Quick test_pgs_validation ] );
      ( "lemke",
        [ Alcotest.test_case "trivial q >= 0" `Quick test_lemke_trivial;
          Alcotest.test_case "known solution" `Quick test_lemke_known;
          Alcotest.test_case "vs PGS on SPD" `Quick test_lemke_vs_pgs_random_spd;
          Alcotest.test_case "ray termination" `Quick test_lemke_infeasible_ray ] );
      ("properties", qsuite) ]
