(* Ablations for the design choices DESIGN.md calls out:
   - lambda sweep: subcell mismatch and iterations of the production
     solve vs the penalty factor;
   - beta/theta grid: convergence of the paper's Algorithm 1 around its
     0.5/0.5 (Theorem 2's bound check included);
   - warm start vs the paper's start: iterations of the production
     solve. *)

open Mclh_core
open Mclh_report

let bench_name = "fft_2"

let run () =
  Util.section "Ablations (fft_2)";
  let inst = Util.instance bench_name in
  let d = inst.Mclh_benchgen.Generate.design in
  let assignment = Row_assign.assign d in
  let model = Model.build d assignment in

  (* lambda sweep *)
  Printf.printf "\n--- lambda vs subcell mismatch (production solve, eps 1e-6) ---\n";
  let t =
    Table.create
      [ { Table.title = "lambda"; align = Table.Right };
        { title = "mismatch (sites)"; align = Right };
        { title = "iterations"; align = Right };
        { title = "converged"; align = Right } ]
  in
  List.iter
    (fun lambda ->
      let config =
        { Config.default with lambda; eps = 1e-6; max_iter = 100_000 }
      in
      let res = Solver.solve ~config model in
      Table.add_row t
        [ Printf.sprintf "%g" lambda;
          Printf.sprintf "%.2e" res.Solver.mismatch;
          string_of_int res.Solver.iterations;
          string_of_bool res.Solver.converged ])
    [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ];
  print_string (Table.render t);

  (* beta/theta grid: Algorithm 1 as the paper runs it, on the whole LCP
     from its start vector, with no Anderson step and no rescue *)
  Printf.printf
    "\n--- beta/theta grid (plain Algorithm 1, paper's start; paper uses 0.5/0.5) ---\n";
  let t =
    Table.create
      [ { Table.title = "beta"; align = Table.Right };
        { title = "theta"; align = Right };
        { title = "iterations"; align = Right };
        { title = "converged"; align = Right };
        { title = "LCP residual"; align = Right };
        { title = "theta bound ok"; align = Right } ]
  in
  (* the LCP residual exposes premature iterate-change stops: a very small
     theta damps the steps so much that the z-change criterion fires while
     the complementarity residual is still large *)
  let lcp = Solver.lcp_problem model ~lambda:Config.default.Config.lambda in
  let q = Solver.rhs_q model and s0 = Warm_start.plain_start model in
  List.iter
    (fun (beta, theta) ->
      let config = { Config.default with beta; theta } in
      let options =
        { Mclh_lcp.Mmsim.eps = 1e-4; max_iter = 30_000; accel = 0 }
      in
      let out =
        Mclh_lcp.Mmsim.solve ~options ~s0
          (Solver.operators model config) ~q
      in
      Table.add_row t
        [ Table.fmt_float 2 beta;
          Table.fmt_float 2 theta;
          string_of_int out.Mclh_lcp.Mmsim.iterations;
          string_of_bool out.Mclh_lcp.Mmsim.converged;
          Printf.sprintf "%.1e" (Mclh_lcp.Lcp.residual_inf lcp out.Mclh_lcp.Mmsim.z);
          string_of_bool (Solver.check_bound model config).Solver.theta_ok ])
    [ (0.25, 0.25); (0.5, 0.25); (0.5, 0.5); (0.5, 0.75); (0.75, 0.5);
      (1.0, 0.5); (0.5, 1.0) ];
  print_string (Table.render t);

  (* warm start *)
  Printf.printf "\n--- warm start (Algorithm 1's s_0, production solve) ---\n";
  let run_ws ?s0 () =
    let config = { Config.default with eps = 1e-6; max_iter = 200_000 } in
    let res, dt = Mclh_par.Clock.timed (fun () -> Solver.solve ~config ?s0 model) in
    (res.Solver.iterations, res.Solver.converged, dt)
  in
  let it_plain, conv_plain, t_plain = run_ws ~s0:(Warm_start.plain_start model) () in
  let it_warm, conv_warm, t_warm = run_ws () in
  Printf.printf
    "plain start (z_0 = x'): %d iterations (converged %b, %.2fs)\n\
     PlaceRow warm start:    %d iterations (converged %b, %.2fs)\n%!"
    it_plain conv_plain t_plain it_warm conv_warm t_warm
