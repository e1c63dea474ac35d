(* Tests for the conjugate-gradient solver, the analytical global
   placer, and the `mclh pipeline` command built on it. *)

open Mclh_linalg
open Mclh_circuit
open Mclh_benchgen

let mk_rand seed =
  let state = ref seed in
  fun () ->
    state := (!state * 1103515245) + 12345;
    float_of_int (!state land 0xFFFFFF) /. float_of_int 0xFFFFFF

(* ---------- CG ---------- *)

let random_spd rand n =
  let m = Dense.init n n (fun _ _ -> rand () -. 0.5) in
  let a = Dense.gram m in
  for i = 0 to n - 1 do
    Dense.set a i i (Dense.get a i i +. 2.0)
  done;
  a

(* an into-style operator for the dense matrix [a] *)
let dense_apply a v out = Array.blit (Dense.mul_vec a v) 0 out 0 (Array.length out)

let test_cg_matches_lu () =
  let rand = mk_rand 3 in
  List.iter
    (fun n ->
      let a = random_spd rand n in
      let b = Vec.init n (fun _ -> rand () *. 4.0 -. 2.0) in
      let ws = Cg.workspace n in
      let cg = Cg.solve ws (dense_apply a) ~b in
      Alcotest.(check bool) "converged" true cg.Cg.converged;
      let x_ref = Lu.solve_system a b in
      if not (Vec.equal ~eps:1e-6 ws.Cg.x x_ref) then
        Alcotest.failf "CG vs LU mismatch at n = %d" n)
    [ 1; 2; 5; 12; 30 ]

let test_cg_jacobi () =
  let rand = mk_rand 7 in
  let n = 20 in
  let a = random_spd rand n in
  (* skew the diagonal so preconditioning matters *)
  for i = 0 to n - 1 do
    Dense.set a i i (Dense.get a i i *. float_of_int (1 + (i mod 5)))
  done;
  let b = Vec.init n (fun _ -> rand ()) in
  let diag = Vec.init n (fun i -> Dense.get a i i) in
  let ws_plain = Cg.workspace n and ws_pre = Cg.workspace n in
  let plain = Cg.solve ws_plain (dense_apply a) ~b in
  let pre = Cg.solve ~jacobi:diag ws_pre (dense_apply a) ~b in
  Alcotest.(check bool) "both converge" true (plain.Cg.converged && pre.Cg.converged);
  Alcotest.(check bool) "same solution" true
    (Vec.equal ~eps:1e-5 ws_plain.Cg.x ws_pre.Cg.x);
  Alcotest.(check bool) "preconditioning not slower" true
    (pre.Cg.iterations <= plain.Cg.iterations + 2)

let test_cg_warm_start () =
  let rand = mk_rand 11 in
  let n = 10 in
  let a = random_spd rand n in
  let b = Vec.init n (fun _ -> rand ()) in
  let ws = Cg.workspace n in
  let _ = Cg.solve ws (dense_apply a) ~b in
  (* the workspace's own iterate is a valid initial guess *)
  let second = Cg.solve ~x0:ws.Cg.x ws (dense_apply a) ~b in
  Alcotest.(check bool) "immediate" true (second.Cg.iterations <= 1)

let test_cg_validation () =
  Alcotest.(check bool) "bad jacobi" true
    (try
       ignore
         (Cg.solve ~jacobi:(Vec.zeros 2) (Cg.workspace 2)
            (fun v out -> Array.blit v 0 out 0 2)
            ~b:(Vec.zeros 2));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "b of another dimension" true
    (try
       ignore
         (Cg.solve (Cg.workspace 2) (fun v out -> Array.blit v 0 out 0 2)
            ~b:(Vec.zeros 3));
       false
     with Invalid_argument _ -> true)

(* the workspace solve against the allocating loop it replaced
   (test/cg_ref.ml), bit for bit: iterate, iteration count, exit and
   residual. A draw is a random SPD system of dimension 1-24 with or
   without Jacobi and x0, and sometimes one of the other exits: b = 0
   (converged at iteration 0), max_iter 0 or 3, or a negative definite
   matrix (the p'Ap <= 0 stop) *)
let cg_draw_gen =
  QCheck.(
    pair
      (triple (int_range 1 100_000) (int_range 1 24) (pair bool bool))
      (int_range 0 4))

let prop_cg_equals_reference =
  QCheck.Test.make ~count:300 ~name:"workspace CG = allocating CG, bit for bit"
    cg_draw_gen (fun ((seed, n, (use_jacobi, use_x0)), exit_kind) ->
      let rand = mk_rand seed in
      let a = random_spd rand n in
      if exit_kind = 4 then
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Dense.set a i j (-.Dense.get a i j)
          done
        done;
      let b =
        if exit_kind = 1 then Vec.zeros n
        else Vec.init n (fun _ -> (rand () *. 4.0) -. 2.0)
      in
      let jacobi =
        if use_jacobi && exit_kind <> 4 then
          Some (Vec.init n (fun i -> Dense.get a i i))
        else None
      in
      let x0 = if use_x0 then Some (Vec.init n (fun _ -> rand ())) else None in
      let max_iter =
        match exit_kind with 2 -> Some 0 | 3 -> Some 3 | _ -> None
      in
      let expect =
        Cg_ref.solve ?max_iter ~tol:1e-10 ?x0 ?jacobi ~dim:n (Dense.mul_vec a) ~b
      in
      let ws = Cg.workspace n in
      (* a dirty workspace must not leak into the solve *)
      List.iter (fun v -> Array.fill v 0 n Float.nan)
        [ ws.Cg.x; ws.Cg.r; ws.Cg.z; ws.Cg.p; ws.Cg.ap ];
      let got = Cg.solve ?max_iter ~tol:1e-10 ?x0 ?jacobi ws (dense_apply a) ~b in
      (* b = 0 with an x0 drives the iterate to NaN. Which NaN an
         operation returns, when both operands are NaNs of different
         signs, follows the operand order the compiler picks for a
         commutative operation; so any NaN matches any NaN *)
      let bits f =
        Int64.bits_of_float (if Float.is_nan f then Float.nan else f)
      in
      Array.map bits ws.Cg.x = Array.map bits expect.Cg_ref.x
      && got.Cg.iterations = expect.Cg_ref.iterations
      && got.Cg.converged = expect.Cg_ref.converged
      && bits got.Cg.residual_norm = bits expect.Cg_ref.residual_norm)

(* the loop allocates nothing per iteration: the words a solve allocates
   (its outcome record) do not grow from 10 to 200 iterations. The
   operator is a CSR product into the given vector, which allocates
   nothing itself. *)
let test_cg_no_allocation () =
  let n = 2000 in
  let coo = Coo.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    Coo.add coo i i (2.0 +. (0.001 *. float_of_int (i mod 7)));
    if i > 0 then Coo.add coo i (i - 1) (-1.0);
    if i < n - 1 then Coo.add coo i (i + 1) (-1.0)
  done;
  let l = Coo.to_csr coo in
  let apply v out = Csr.mul_vec_into l v out in
  let b = Vec.init n (fun i -> float_of_int (i mod 13)) in
  let jacobi = Vec.init n (fun i -> Csr.get l i i) in
  let ws = Cg.workspace n in
  let words max_iter =
    let minor0, _, major0 = Gc.counters () in
    let r = Cg.solve ~max_iter ~tol:0.0 ~jacobi ws apply ~b in
    let minor1, _, major1 = Gc.counters () in
    Alcotest.(check int) "ran to max_iter" max_iter r.Cg.iterations;
    (minor1 -. minor0, major1 -. major0)
  in
  ignore (words 10);
  let short_minor, short_major = words 10 in
  let long_minor, long_major = words 200 in
  Alcotest.(check (float 0.0)) "minor words" short_minor long_minor;
  Alcotest.(check (float 0.0)) "major words" short_major long_major

(* ---------- Gp ---------- *)

let design_for name scale =
  (Generate.generate (Spec.scaled scale (Spec.find name))).Generate.design

let test_gp_basics () =
  let d = design_for "fft_2" 0.01 in
  let gp, stats = Mclh_gp.Gp.place d in
  (* the overflow stopping rule may end the loop early, never late *)
  let nrounds = List.length stats.Mclh_gp.Gp.rounds in
  Alcotest.(check bool) "rounds recorded" true
    (nrounds >= 1
    && nrounds <= Mclh_gp.Gp.default_options.Mclh_gp.Gp.iterations);
  (* round indices are chronological starting at 1 *)
  List.iteri
    (fun i (r : Mclh_gp.Gp.round) ->
      Alcotest.(check int) "round index" (i + 1) r.Mclh_gp.Gp.index)
    stats.Mclh_gp.Gp.rounds;
  (* in bounds *)
  let chip = d.Design.chip in
  Array.iteri
    (fun i (c : Cell.t) ->
      let x = gp.Placement.xs.(i) and y = gp.Placement.ys.(i) in
      if
        x < 0.0
        || x +. float_of_int c.Cell.width > float_of_int chip.Chip.num_sites
        || y < 0.0
        || y +. float_of_int c.Cell.height > float_of_int chip.Chip.num_rows
      then Alcotest.failf "cell %d out of bounds" i)
    d.Design.cells;
  (* wirelength sanity: far below a deliberately scattered placement *)
  let rand = mk_rand 13 in
  let scattered =
    Placement.make
      ~xs:(Array.init (Design.num_cells d) (fun _ ->
               rand () *. float_of_int (chip.Chip.num_sites - 12)))
      ~ys:(Array.init (Design.num_cells d) (fun _ ->
               rand () *. float_of_int (chip.Chip.num_rows - 4)))
  in
  let rh = chip.Chip.row_height in
  let h_gp = Hpwl.total ~row_height:rh d.Design.nets gp in
  let h_rand = Hpwl.total ~row_height:rh d.Design.nets scattered in
  Alcotest.(check bool)
    (Printf.sprintf "gp %.0f < scattered %.0f" h_gp h_rand)
    true (h_gp < h_rand)

let test_gp_deterministic () =
  let d = design_for "fft_a" 0.01 in
  let gp1, _ = Mclh_gp.Gp.place d in
  let gp2, _ = Mclh_gp.Gp.place d in
  Alcotest.(check bool) "deterministic" true (Placement.equal gp1 gp2)

let placement_bits (p : Placement.t) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f))
    (Array.append p.Placement.xs p.Placement.ys);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the two axis solves run as one pool region at top level; inside a pool
   job the region runs them in turn. Both give the same bits, and those
   are the bits the placer gave before the solves moved onto the pool *)
let test_gp_pool_bits () =
  let d = design_for "fft_2" 0.02 in
  let top, _ = Mclh_gp.Gp.place d in
  let nested =
    Mclh_par.Pool.parallel_map (Mclh_par.Pool.default ())
      (fun d -> fst (Mclh_gp.Gp.place d))
      [| d; d |]
  in
  Array.iter
    (fun pl ->
      Alcotest.(check string) "nested = top level" (placement_bits top)
        (placement_bits pl))
    nested;
  Alcotest.(check string) "pinned fft_2 0.02" "701664f415eb60e927352cd32794224e"
    (placement_bits top)

(* the fractional GP output is handed to MMSIM as it is, then refined.
   Beside the two small inputs, the nine fft/pci/matrix families at scale
   0.04 hold the pipeline's quality gates: no cell is legal at handoff, the
   result is legal, and the final overflow stays within the worst the
   placer has reached on them (10.2%, matrix_mult_1) *)
let test_gp_output_legalizes () =
  (* one pool job per input; the checks run here, in input order *)
  let pipeline (name, scale) =
    let d0 = design_for name scale in
    let gp, stats = Mclh_gp.Gp.place d0 in
    let d =
      Design.make ~blockages:d0.Design.blockages ~name:"gp" ~chip:d0.Design.chip
        ~cells:d0.Design.cells ~global:gp ~nets:d0.Design.nets ()
    in
    let legal =
      (Mclh_core.Runner.run Mclh_core.Runner.Mmsim d).Mclh_core.Runner.placement
    in
    let refined, _ = Mclh_refine.Refine.run d legal in
    ( Printf.sprintf "%s@%g" name scale,
      Design.num_cells d,
      Legality.count_illegal d gp,
      Legality.is_legal d legal,
      Legality.is_legal d refined,
      stats.Mclh_gp.Gp.final_overflow )
  in
  let inputs =
    [ ("fft_2", 0.01); ("pci_bridge32_b", 0.01) ]
    @ List.map
        (fun name -> (name, 0.04))
        [ "fft_1"; "fft_2"; "fft_a"; "fft_b"; "pci_bridge32_a"; "pci_bridge32_b";
          "matrix_mult_1"; "matrix_mult_2"; "matrix_mult_a" ]
  in
  Mclh_par.Pool.parallel_map (Mclh_par.Pool.default ()) pipeline
    (Array.of_list inputs)
  |> Array.iter (fun (what, cells, illegal, legal, refined_legal, overflow) ->
         Alcotest.(check int) (what ^ " every cell illegal at handoff") cells
           illegal;
         Alcotest.(check bool) (what ^ " legalizes") true legal;
         Alcotest.(check bool) (what ^ " legal after refine") true refined_legal;
         Alcotest.(check bool)
           (Printf.sprintf "%s final overflow %.4f < 0.1025" what overflow)
           true (overflow < 0.1025))

let test_gp_no_nets () =
  (* without nets, cells start at the staggered center anchors and the
     density field spreads them apart until they fit the target *)
  let chip = Chip.make ~num_rows:4 ~num_sites:40 () in
  let cells = Array.init 3 (fun id -> Cell.make ~id ~width:3 ~height:1 ()) in
  let d =
    Design.make ~name:"isolated" ~chip ~cells
      ~global:(Placement.create 3)
      ~nets:(Netlist.empty ~num_cells:3)
      ()
  in
  let gp, stats = Mclh_gp.Gp.place d in
  Alcotest.(check (float 1e-9)) "no wirelength" 0.0 stats.Mclh_gp.Gp.final_hpwl;
  Array.iter
    (fun x ->
      Alcotest.(check bool) "in bounds" true (x >= 0.0 && x <= 37.0))
    gp.Placement.xs;
  (* density equalization reached its target on this trivial instance *)
  Alcotest.(check bool) "spread converged" true
    (stats.Mclh_gp.Gp.final_overflow
    <= Mclh_gp.Gp.default_options.Mclh_gp.Gp.stop_overflow)

(* ---------- density engine ---------- *)

let test_density_conservation () =
  (* binning is area-exact: the grid holds exactly the movable area *)
  let d = design_for "fft_a" 0.02 in
  let fixed = Array.make (Design.num_cells d) false in
  fixed.(0) <- true;
  let t = Mclh_gp.Density.create ~fixed d in
  Mclh_gp.Density.accumulate t d d.Design.global;
  let binned =
    Array.fold_left ( +. ) 0.0 (Mclh_gp.Density.movable t)
  in
  let expect = Mclh_gp.Density.total_movable_area t in
  Alcotest.(check bool)
    (Printf.sprintf "binned %.3f = movable %.3f" binned expect)
    true
    (Float.abs (binned -. expect) < 1e-6 *. Float.max 1.0 expect)

let test_density_poisson_residual () =
  (* the spectral potential satisfies the 5-point Neumann Laplacian:
     L psi = -(rho - mean rho), checked by direct stencil application *)
  let d = design_for "pci_bridge32_a" 0.02 in
  let t = Mclh_gp.Density.create ~grid:32 d in
  Mclh_gp.Density.accumulate t d d.Design.global;
  Mclh_gp.Density.solve t;
  let m = Mclh_gp.Density.grid t in
  let psi = Mclh_gp.Density.potential t
  and rho = Mclh_gp.Density.charge t in
  let mean = Array.fold_left ( +. ) 0.0 rho /. float_of_int (m * m) in
  let at g ix iy =
    let ix = max 0 (min (m - 1) ix) and iy = max 0 (min (m - 1) iy) in
    g.((iy * m) + ix)
  in
  let maxres = ref 0.0 in
  for iy = 0 to m - 1 do
    for ix = 0 to m - 1 do
      let lap =
        at psi (ix - 1) iy +. at psi (ix + 1) iy +. at psi ix (iy - 1)
        +. at psi ix (iy + 1)
        -. (4.0 *. at psi ix iy)
      in
      maxres := Float.max !maxres (Float.abs (lap +. rho.((iy * m) + ix) -. mean))
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "max residual %.2e" !maxres)
    true (!maxres < 1e-6)

let test_gp_overflow_decreases () =
  let d = design_for "fft_2" 0.01 in
  let _, stats = Mclh_gp.Gp.place d in
  match stats.Mclh_gp.Gp.rounds with
  | [] -> Alcotest.fail "no rounds"
  | first :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "overflow %.3f -> %.3f" first.Mclh_gp.Gp.overflow
         stats.Mclh_gp.Gp.final_overflow)
      true
      (stats.Mclh_gp.Gp.final_overflow < first.Mclh_gp.Gp.overflow
      || stats.Mclh_gp.Gp.final_overflow
         <= Mclh_gp.Gp.default_options.Mclh_gp.Gp.stop_overflow)

let test_gp_fixed_cells_stay_put () =
  let d = design_for "fft_a" 0.01 in
  let pinned = [ 0; 3; 7 ] in
  let options =
    { Mclh_gp.Gp.default_options with Mclh_gp.Gp.fixed_cells = pinned }
  in
  let gp, _ = Mclh_gp.Gp.place ~options d in
  List.iter
    (fun i ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "cell %d x" i)
        d.Design.global.Placement.xs.(i)
        gp.Placement.xs.(i);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "cell %d y" i)
        d.Design.global.Placement.ys.(i)
        gp.Placement.ys.(i))
    pinned;
  (* movable cells did move off the pinned spots' neighborhood *)
  Alcotest.(check bool) "placement not the input" false
    (Placement.equal gp d.Design.global)

let test_gp_honest_illegality () =
  (* the whole point of density-driven GP: its output is overlapping
     (illegal) before legalization, then legalizes cleanly *)
  let d0 = design_for "fft_2" 0.02 in
  let gp, _ = Mclh_gp.Gp.place d0 in
  let d =
    Design.make ~blockages:d0.Design.blockages ~name:"gp" ~chip:d0.Design.chip
      ~cells:d0.Design.cells ~global:gp ~nets:d0.Design.nets ()
  in
  let illegal_pre = Legality.count_illegal d gp in
  Alcotest.(check bool)
    (Printf.sprintf "%d illegal cells pre-legalization" illegal_pre)
    true (illegal_pre > 0);
  let legal = Mclh_core.Flow.legalize d in
  Alcotest.(check bool) "legalizes" true (Legality.is_legal d legal)

(* ---------- eco bridge ---------- *)

let test_eco_bridge_round_trip () =
  let d = design_for "fft_a" 0.01 in
  let snapshots = ref [] in
  let _, _ =
    Mclh_gp.Gp.place
      ~on_round:(fun _ pl -> snapshots := Placement.copy pl :: !snapshots)
      d
  in
  let snapshots = List.rev !snapshots in
  Alcotest.(check bool) "several rounds" true (List.length snapshots >= 2);
  let batches = Mclh_gp.Eco_bridge.batches_of_rounds snapshots in
  Alcotest.(check bool) "non-empty" true (batches <> []);
  (* every batch is pure moves, and each move lands exactly on the next
     snapshot's position for that cell *)
  let rec check_batches snaps batches =
    match (snaps, batches) with
    | _, [] -> ()
    | prev :: (next :: _ as rest), batch :: more ->
      let moved = List.length batch in
      if moved = 0 then Alcotest.fail "empty batch emitted";
      List.iter
        (function
          | Mclh_incr.Edit.Move { cell; x; y } ->
            Alcotest.(check (float 1e-12)) "x" next.Placement.xs.(cell) x;
            Alcotest.(check (float 1e-12)) "y" next.Placement.ys.(cell) y
          | _ -> Alcotest.fail "non-move edit from the bridge")
        batch;
      ignore prev;
      check_batches rest more
    | _ -> Alcotest.fail "more batches than snapshot pairs"
  in
  check_batches snapshots batches;
  (* file round trip *)
  let path = Filename.temp_file "gp_edits" ".edits" in
  Mclh_gp.Eco_bridge.write ~path snapshots;
  let back = Mclh_incr.Edit.read_file ~path in
  Sys.remove path;
  Alcotest.(check int) "batch count survives" (List.length batches)
    (List.length back);
  List.iter2
    (fun b1 b2 ->
      Alcotest.(check int) "batch size" (List.length b1) (List.length b2))
    batches back

(* ---------- CLI: mclh pipeline ---------- *)

let test_cli_pipeline () =
  if not (Cli.available ()) then Alcotest.skip ()
  else begin
    let placed = Filename.temp_file "mclh_pipeline" ".pl.mclh" in
    let report = Filename.temp_file "mclh_pipeline" ".json" in
    Alcotest.(check int) "pipeline exits 0" 0
      (Cli.run
         [ "pipeline"; "-b"; "fft_2"; "-s"; "0.02"; "--blockages"; "0.15";
           "--metrics-out"; report; "-o"; placed ]);
    let r = Cli.read_json report in
    List.iter Sys.remove [ placed; report ];
    (match Mclh_obs.Run_report.validate r with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Alcotest.(check bool) "gp rounds" true
      (Cli.int_at [ "counters"; "gp/rounds" ] r > 0);
    Alcotest.(check bool) "gp cg iterations" true
      (Cli.int_at [ "counters"; "gp/cg_iterations" ] r > 0);
    let spans = Cli.keys [ "spans_s" ] r in
    List.iter
      (fun span -> Alcotest.(check bool) (span ^ " span") true (List.mem span spans))
      [ "gp/place"; "pipeline/gp"; "pipeline/legalize"; "pipeline/refine" ];
    Alcotest.(check bool) "gp/overflow trace" true
      (List.mem "gp/overflow" (Cli.keys [ "traces" ] r));
    Alcotest.(check bool) "final overflow <= 15%" true
      (Cli.float_at [ "gauges"; "gp/final_overflow" ] r <= 0.15);
    Alcotest.(check bool) "legal" true
      (Cli.member [ "meta"; "legal" ] r = Mclh_report.Json.Bool true);
    (* the legalizer gets an honest, heavily overlapping input *)
    Alcotest.(check bool) "at least 100 illegal cells before legalization" true
      (Cli.int_at [ "meta"; "illegal_pre" ] r >= 100)
  end

let () =
  Alcotest.run "gp"
    [ ( "cg",
        [ Alcotest.test_case "matches LU" `Quick test_cg_matches_lu;
          Alcotest.test_case "jacobi" `Quick test_cg_jacobi;
          Alcotest.test_case "warm start" `Quick test_cg_warm_start;
          Alcotest.test_case "validation" `Quick test_cg_validation;
          QCheck_alcotest.to_alcotest prop_cg_equals_reference;
          Alcotest.test_case "no allocation per iteration" `Quick
            test_cg_no_allocation ] );
      ( "placer",
        [ Alcotest.test_case "basics" `Quick test_gp_basics;
          Alcotest.test_case "deterministic" `Quick test_gp_deterministic;
          Alcotest.test_case "pool = nested, pinned bits" `Quick
            test_gp_pool_bits;
          Alcotest.test_case "output legalizes" `Quick test_gp_output_legalizes;
          Alcotest.test_case "no nets" `Quick test_gp_no_nets;
          Alcotest.test_case "overflow decreases" `Quick
            test_gp_overflow_decreases;
          Alcotest.test_case "fixed cells stay put" `Quick
            test_gp_fixed_cells_stay_put;
          Alcotest.test_case "honest illegality" `Quick
            test_gp_honest_illegality ] );
      ( "density",
        [ Alcotest.test_case "conservation" `Quick test_density_conservation;
          Alcotest.test_case "poisson residual" `Quick
            test_density_poisson_residual ] );
      ( "eco-bridge",
        [ Alcotest.test_case "round trip" `Quick test_eco_bridge_round_trip ] );
      ( "cli",
        [ Alcotest.test_case "pipeline --metrics-out" `Quick test_cli_pipeline ] ) ]
