(* Tests for the per-shard solve: the accelerated solve with its theta/2
   retry lands on the plain run-to-convergence Algorithm 1 solution
   ({!Algorithm1}), and certifies a shard whose PlaceRow start is exact in
   one iteration; the des_perf_1 non-convergence fix stays fixed, and the
   solve cuts plain Algorithm 1's iterations at least 3x on des_perf_1 and
   matrix_mult_1 with the same snapped placement; and
   --strict-convergence turns silent budget exhaustion into a non-zero
   exit. *)

open Mclh_core
open Mclh_linalg

let instance ?(options = Mclh_benchgen.Generate.default_options) ~scale name =
  Mclh_benchgen.Generate.generate ~options
    (Mclh_benchgen.Spec.scaled scale (Mclh_benchgen.Spec.find name))

let model_of ?options ~scale name =
  let d = (instance ?options ~scale name).Mclh_benchgen.Generate.design in
  (d, Model.build d (Row_assign.assign d))

let placement_xs model x =
  (Model.placement_of model x).Mclh_circuit.Placement.xs

(* run-to-convergence plain Algorithm 1: the semantic baseline the solve
   is judged against. eps far below the production tolerance so the
   iterate-change stop is within ~1e-10 of the true fixed point *)
let tight =
  { Config.default with eps = 1e-12; max_iter = 400_000; num_domains = 1 }

(* ---------- the solve vs plain MMSIM on exactly warm-started shards ---------- *)

(* Sec 5.3: without multi-row chains the PlaceRow start is the fixed
   point, so the solve takes it whatever s0 it is offered and stops after
   the one iteration that verifies it *)
let test_auto_exact_shards () =
  let options =
    { Mclh_benchgen.Generate.default_options with
      blockage_fraction = 0.2;
      blockage_count = 24 }
  in
  let check_shards model deco =
    Array.fold_left
      (fun hits shard ->
        let sub = Decompose.extract model shard in
        if not (Warm_start.exact sub) then hits
        else begin
          let dim = sub.Model.nvars + Model.num_constraints sub in
          let base = Algorithm1.solve tight sub in
          if not base.Algorithm1.converged then
            Alcotest.failf "plain baseline did not converge (dim %d)" dim;
          let adversarial =
            Vec.init dim (fun i -> (0.5 *. float_of_int (i mod 7)) -. 1.0)
          in
          List.iter
            (fun (start, s0) ->
              let auto = Solver.solve ~config:tight ?s0 sub in
              if not (auto.Solver.converged && auto.Solver.iterations = 1) then
                Alcotest.failf "%s: auto took %d iterations (converged %b, dim %d)"
                  start auto.Solver.iterations auto.Solver.converged dim;
              let d = Vec.dist_inf auto.Solver.x base.Algorithm1.x in
              if d > 1e-8 then
                Alcotest.failf "%s: auto disagrees with plain MMSIM by %g (dim %d)"
                  start d dim)
            [ ("own start", None); ("adversarial s0", Some adversarial) ];
          hits + 1
        end)
      0 deco.Decompose.shards
  in
  (* the components of a blockage-rich mixed-height design: singletons,
     short rows and every size in between; and those of a single-height
     design, where every shard is exactly warm-started *)
  let _, mixed = model_of ~options ~scale:0.02 "fft_2" in
  let mixed_exact = check_shards mixed (Decompose.analyze mixed) in
  let single_height =
    { Mclh_benchgen.Generate.default_options with single_height_only = true }
  in
  let _, single = model_of ~options:single_height ~scale:0.02 "pci_bridge32_a" in
  let single_exact = check_shards single (Decompose.analyze single) in
  (* the test is vacuous unless such shards actually ran *)
  Alcotest.(check bool) "single-height exact shards exercised" true
    (single_exact > 1);
  Alcotest.(check bool) "mixed-height exact shards exercised" true
    (mixed_exact > 4)

(* ---------- end-to-end chooser equivalence ---------- *)

let flavor_options = function
  | 0 -> Mclh_benchgen.Generate.default_options
  | 1 ->
    { Mclh_benchgen.Generate.default_options with
      blockage_fraction = 0.15;
      blockage_count = 16 }
  | _ -> { Mclh_benchgen.Generate.default_options with tall_cell_fraction = 0.3 }

let qc_chooser_matches_plain_baseline =
  (* the solve (tight tolerance) vs the plain run-to-convergence
     baseline: positions within 1e-9 on random designs with blockages,
     tall cells, and adversarial warm starts. The fixed point is unique,
     so acceleration, rescue and s0 may change the path but not the
     answer. *)
  QCheck.Test.make ~count:10 ~name:"backend chooser matches plain baseline"
    QCheck.(triple (int_range 0 10_000) (int_range 0 2) bool)
    (fun (seed, flavor, warm) ->
      let options = { (flavor_options flavor) with seed } in
      let _, model = model_of ~options ~scale:0.005 "fft_2" in
      let base = Algorithm1.solve tight model in
      (* a rare slow-contracting draw can exhaust even this budget; the
         baseline is then not a fixed point and proves nothing — skip *)
      QCheck.assume base.Algorithm1.converged;
      let xs_base = placement_xs model base.Algorithm1.x in
      let s0 =
        if not warm then None
        else
          Some
            (Vec.init
               (model.Model.nvars + Model.num_constraints model)
               (fun i -> (0.5 *. float_of_int (i mod 7)) -. 1.0))
      in
      let auto = Solver.solve ~config:tight ?s0 model in
      auto.Solver.converged
      && Vec.dist_inf (placement_xs model auto.Solver.x) xs_base <= 1e-9)

(* ---------- des_perf_1 regression ---------- *)

let test_des_perf_1_converges () =
  (* plain MMSIM exhausts its 10k budget on des_perf_1 (the
     slowest-contracting benchmark) and used to report success anyway.
     The solve must converge well inside the budget — pinned at a third
     of it, a >= 3x iteration cut. *)
  let _, model = model_of ~scale:0.04 "des_perf_1" in
  let res = Solver.solve ~config:{ Config.default with num_domains = 1 } model in
  Alcotest.(check bool) "converged" true res.Solver.converged;
  Alcotest.(check bool)
    (Printf.sprintf "iterations_total %d within a third of the budget"
       res.Solver.iterations_total)
    true
    (res.Solver.iterations_total * 3 < Config.default.Config.max_iter)

(* plain Algorithm 1, its budget raised until it converges, against the
   solve on the two slowest-contracting benchmarks: the solve cuts the
   iteration total at least 3x, and after the snapping stage both give
   the same placement *)
let test_auto_cuts_plain_iterations () =
  List.iter
    (fun name ->
      let d, model = model_of ~scale:0.04 name in
      let plain =
        Algorithm1.solve { Config.default with max_iter = 2_000_000 } model
      in
      let auto = Solver.solve model in
      Alcotest.(check bool) (name ^ ": plain converged") true plain.Algorithm1.converged;
      Alcotest.(check bool) (name ^ ": auto converged") true auto.Solver.converged;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d plain vs %d auto iterations, >= 3x cut" name
           plain.Algorithm1.iterations_total auto.Solver.iterations_total)
        true
        (plain.Algorithm1.iterations_total >= 3 * auto.Solver.iterations_total);
      let snapped x =
        (Tetris_alloc.run d (Model.placement_of model x))
          .Tetris_alloc.placement
          .Mclh_circuit.Placement.xs
      in
      Alcotest.(check bool) (name ^ ": same post-snap placement") true
        (Vec.dist_inf (snapped plain.Algorithm1.x) (snapped auto.Solver.x) <= 1e-9))
    [ "des_perf_1"; "matrix_mult_1" ]

(* ---------- the theta/2 retry ---------- *)

(* a named rescue input: on superblue12 at 0.02 (generator seed 1, 30%
   tall cells, 15% blockage in 32 rectangles) one component, of
   dimension 69, exhausts a 1,000-iteration accelerated attempt; its one
   retry at theta/2 converges. The two largest components (14,440 and
   34,211 dims) converge on their first attempt but take seconds, so the
   solve here covers every other one (167 of 169) *)
let test_theta_half_retry_rescues () =
  let options =
    { Mclh_benchgen.Generate.default_options with
      seed = 1;
      tall_cell_fraction = 0.3;
      blockage_fraction = 0.15;
      blockage_count = 32 }
  in
  let _, model = model_of ~options ~scale:0.02 "superblue12" in
  let shards =
    (Decompose.analyze model).Decompose.shards
    |> Array.to_list
    |> List.filter (fun sh -> Decompose.shard_dim sh < 10_000)
    |> Array.of_list
  in
  Alcotest.(check int) "shards solved" 167 (Array.length shards);
  let max_iter = 1_000 in
  let n = model.Model.nvars and m = Model.num_constraints model in
  (* only the rescued shard spends more than one attempt's budget *)
  let over_budget = ref [] in
  let fan =
    Solver.solve_shards
      ~on_trace:(fun i ~iterations _ ->
        if iterations > max_iter then
          over_budget := Decompose.shard_dim shards.(i) :: !over_budget)
      { Config.default with max_iter; num_domains = 1 }
      model shards ~x:(Vec.zeros n) ~r:(Vec.zeros m) ~modulus:(Vec.zeros (n + m))
  in
  Alcotest.(check bool) "converged" true fan.Solver.all_converged;
  Alcotest.(check int) "one fallback" 1 fan.Solver.fallbacks;
  (* which shard needs the retry depends on the Anderson sums' order,
     which follows the model's variable numbering *)
  Alcotest.(check (list int)) "rescued shard dims" [ 457 ] !over_budget

(* ---------- CLI --strict-convergence ---------- *)

let test_cli_strict_convergence () =
  if not (Cli.available ()) then Alcotest.skip ()
  else
    List.iter
      (fun (bench, scale) ->
        let run = [ "run"; "-b"; bench; "-s"; scale ] in
        let starved = run @ [ "--max-iter"; "3" ] in
        (* a starved budget cannot converge: warn-only without the flag... *)
        Alcotest.(check int) (bench ^ ": non-convergence alone still exits 0") 0
          (Cli.run starved);
        (* ...and exit 3 (distinct from exit 2 = illegal placement) with it *)
        Alcotest.(check int) (bench ^ ": strict turns it into exit 3") 3
          (Cli.run (starved @ [ "--strict-convergence" ]));
        Alcotest.(check int) (bench ^ ": strict passes on a converging run") 0
          (Cli.run (run @ [ "--strict-convergence" ])))
      [ ("fft_2", "0.02"); ("des_perf_1", "0.04") ]

let () =
  Alcotest.run "backend"
    [ ( "chooser",
        [ QCheck_alcotest.to_alcotest qc_chooser_matches_plain_baseline;
          Alcotest.test_case "exact warm start, one iteration" `Quick
            test_auto_exact_shards ] );
      ( "regression",
        [ Alcotest.test_case "des_perf_1 converges in budget/3" `Quick
            test_des_perf_1_converges;
          Alcotest.test_case "auto 3x fewer iterations than plain" `Slow
            test_auto_cuts_plain_iterations;
          Alcotest.test_case "theta/2 retry rescues superblue12" `Quick
            test_theta_half_retry_rescues ] );
      ( "cli",
        [ Alcotest.test_case "--strict-convergence" `Quick
            test_cli_strict_convergence ] ) ]
