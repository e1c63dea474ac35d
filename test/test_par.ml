(* Tests for the multicore layer: pool lifecycle, exception propagation,
   and — the key property — bit-identity of the parallel and sequential
   paths of Fence.legalize, Runner.run/run_all, and Solver.solve. *)

open Mclh_circuit
open Mclh_core
open Mclh_par

(* ---------- pool mechanics ---------- *)

let test_pool_map_order () =
  let pool = Pool.create ~num_domains:4 in
  Alcotest.(check int) "size" 4 (Pool.size pool);
  let input = Array.init 100 (fun i -> i) in
  (* reuse the same pool across several jobs *)
  for _ = 1 to 3 do
    let out = Pool.parallel_map pool (fun i -> (2 * i) + 1) input in
    Alcotest.(check (array int))
      "index-ordered results"
      (Array.map (fun i -> (2 * i) + 1) input)
      out
  done;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  (* a stopped pool still computes, sequentially *)
  let out = Pool.parallel_map pool (fun i -> i * i) input in
  Alcotest.(check (array int)) "after shutdown" (Array.map (fun i -> i * i) input) out

let test_pool_iter_chunks_cover () =
  let pool = Pool.create ~num_domains:3 in
  List.iter
    (fun n ->
      let hits = Array.make (max n 1) 0 in
      (* chunks run on worker domains, where Alcotest's assertion log is
         not safe to write: collect the verdict, check it on this one *)
      let bounds_ok = Atomic.make true in
      Pool.parallel_iter_chunks pool n ~f:(fun lo hi ->
          if not (0 <= lo && lo <= hi && hi <= n) then Atomic.set bounds_ok false;
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "chunk bounds" true (Atomic.get bounds_ok);
      if n > 0 then
        Alcotest.(check (array int))
          (Printf.sprintf "each index covered once (n=%d)" n)
          (Array.make n 1) (Array.sub hits 0 n))
    [ 0; 1; 2; 3; 7; 100; 101 ];
  (* min_chunk keeps small ranges on the caller *)
  let calls = ref 0 in
  Pool.parallel_iter_chunks ~min_chunk:50 pool 40 ~f:(fun lo hi ->
      incr calls;
      Alcotest.(check (pair int int)) "single chunk" (0, 40) (lo, hi));
  Alcotest.(check int) "one call" 1 !calls;
  Pool.shutdown pool

exception Boom of int

let test_pool_exception_propagation () =
  let pool = Pool.create ~num_domains:4 in
  let raised =
    try
      ignore
        (Pool.parallel_map pool
           (fun i -> if i = 13 then raise (Boom i) else i)
           (Array.init 64 Fun.id));
      false
    with Boom 13 -> true
  in
  Alcotest.(check bool) "exception reaches the caller" true raised;
  (* the pool survives a failed job *)
  let out = Pool.parallel_map pool (fun i -> i + 1) (Array.init 32 Fun.id) in
  Alcotest.(check (array int)) "usable after failure" (Array.init 32 (fun i -> i + 1)) out;
  Pool.shutdown pool

let test_pool_nested_fallback () =
  (* a nested parallel call on a busy pool must degrade to sequential,
     not deadlock, and still produce correct results *)
  let pool = Pool.create ~num_domains:3 in
  let out =
    Pool.parallel_map pool
      (fun i ->
        let inner = Pool.parallel_map pool (fun j -> i + j) (Array.init 10 Fun.id) in
        Array.fold_left ( + ) 0 inner)
      (Array.init 8 Fun.id)
  in
  let expect = Array.init 8 (fun i -> (10 * i) + 45) in
  Alcotest.(check (array int)) "nested results" expect out;
  Pool.shutdown pool

let test_default_num_domains () =
  (* the env override is read by default_num_domains; tests run without
     MCLH_DOMAINS, so it falls back to the hardware-based default *)
  let d = Pool.default_num_domains () in
  Alcotest.(check bool) "at least one" true (d >= 1);
  Alcotest.(check bool) "capped" true (d <= 8 || Sys.getenv_opt "MCLH_DOMAINS" <> None)

(* ---------- bit-identity of the wired layers ---------- *)

let check_placement_identical name (a : Placement.t) (b : Placement.t) =
  (* exact float equality: the parallel path must be the same arithmetic *)
  Alcotest.(check (array (float 0.0))) (name ^ " xs") a.Placement.xs b.Placement.xs;
  Alcotest.(check (array (float 0.0))) (name ^ " ys") a.Placement.ys b.Placement.ys

let instance ?(options = Mclh_benchgen.Generate.default_options) ?(scale = 0.008)
    name =
  Mclh_benchgen.Generate.generate ~options
    (Mclh_benchgen.Spec.scaled scale (Mclh_benchgen.Spec.find name))

let config_with_domains num_domains = { Config.default with num_domains }

let test_fence_bit_identity () =
  let options =
    { Mclh_benchgen.Generate.default_options with fence_count = 2 }
  in
  let d = (instance ~options "fft_2").Mclh_benchgen.Generate.design in
  let seq, seq_stats = Fence.legalize ~config:(config_with_domains 1) d in
  List.iter
    (fun nd ->
      let par, par_stats = Fence.legalize ~config:(config_with_domains nd) d in
      check_placement_identical (Printf.sprintf "fence nd=%d" nd) seq par;
      Alcotest.(check int)
        (Printf.sprintf "territories nd=%d" nd)
        seq_stats.Fence.territories par_stats.Fence.territories;
      Alcotest.(check (list (triple string int int)))
        (Printf.sprintf "per-territory stats nd=%d" nd)
        (List.map
           (fun t -> (t.Fence.name, t.Fence.cells, t.Fence.iterations))
           seq_stats.Fence.per_territory)
        (List.map
           (fun t -> (t.Fence.name, t.Fence.cells, t.Fence.iterations))
           par_stats.Fence.per_territory))
    [ 2; 4 ];
  Alcotest.(check bool) "legal" true (Legality.is_legal d seq)

let test_solver_bit_identity () =
  (* force the parallel per-chain path on a small model by lowering the
     chunk threshold *)
  let d = (instance ~scale:0.01 "fft_2").Mclh_benchgen.Generate.design in
  let assignment = Row_assign.assign d in
  let model = Model.build d assignment in
  Alcotest.(check bool) "model has chains" true
    (Mclh_linalg.Blocks.num_chains model.Model.blocks > 1);
  let saved = !Solver.par_chain_chunk in
  Fun.protect
    ~finally:(fun () -> Solver.par_chain_chunk := saved)
    (fun () ->
      Solver.par_chain_chunk := 1;
      let seq = Solver.solve ~config:(config_with_domains 1) model in
      List.iter
        (fun nd ->
          let par = Solver.solve ~config:(config_with_domains nd) model in
          let tag = Printf.sprintf "solver nd=%d" nd in
          Alcotest.(check int) (tag ^ " iterations") seq.Solver.iterations
            par.Solver.iterations;
          Alcotest.(check bool) (tag ^ " converged") seq.Solver.converged
            par.Solver.converged;
          Alcotest.(check (array (float 0.0))) (tag ^ " x") seq.Solver.x par.Solver.x;
          Alcotest.(check (array (float 0.0))) (tag ^ " r") seq.Solver.r par.Solver.r)
        [ 2; 4 ])

let test_pool_iter_weighted () =
  (* coverage and chunk determinism: every element of [order] is visited
     exactly once whatever the pool degree or min_chunk_weight, and
     disjoint writes land identically *)
  let orders =
    [ [||]; [| 0 |]; [| 4; 1; 0; 3; 2 |]; Array.init 257 (fun i -> 256 - i) ]
  in
  let weights i = 1 + (i mod 7) in
  List.iter
    (fun num_domains ->
      let pool = Pool.create ~num_domains in
      List.iter
        (fun order ->
          List.iter
            (fun min_chunk_weight ->
              let n = Array.length order in
              let hits = Array.make (max n 1) 0 in
              Pool.parallel_iter_weighted ~min_chunk_weight pool
                ~weight:weights
                ~f:(fun i -> hits.(i) <- hits.(i) + 1)
                order;
              if n > 0 then
                Alcotest.(check (array int))
                  (Printf.sprintf
                     "each element once (n=%d, nd=%d, mcw=%d)" n num_domains
                     min_chunk_weight)
                  (Array.make n 1) (Array.sub hits 0 n))
            [ 1; 3; 1000 ])
        orders;
      Pool.shutdown pool)
    [ 1; 3 ];
  let pool = Pool.create ~num_domains:2 in
  Alcotest.check_raises "min_chunk_weight validated"
    (Invalid_argument "Pool.parallel_iter_weighted: min_chunk_weight < 1")
    (fun () ->
      Pool.parallel_iter_weighted ~min_chunk_weight:0 pool
        ~weight:(fun _ -> 1)
        ~f:ignore [| 0 |]);
  Pool.shutdown pool

let test_runner_bit_identity () =
  let d = (instance "fft_1").Mclh_benchgen.Generate.design in
  let seq = Runner.run ~config:(config_with_domains 1) Runner.Mmsim d in
  let par = Runner.run ~config:(config_with_domains 4) Runner.Mmsim d in
  check_placement_identical "runner mmsim" seq.Runner.placement par.Runner.placement;
  Alcotest.(check bool) "legal" true par.Runner.legal;
  Alcotest.(check (float 1e-12)) "displacement"
    seq.Runner.displacement.Metrics.total_manhattan
    par.Runner.displacement.Metrics.total_manhattan

let test_run_all_matches_run () =
  let designs =
    List.map
      (fun name -> (instance name).Mclh_benchgen.Generate.design)
      [ "fft_1"; "fft_2"; "pci_bridge32_a" ]
  in
  let algorithms = [ Runner.Tetris; Runner.Mmsim ] in
  List.iter
    (fun nd ->
      let config = config_with_domains nd in
      let grouped = Runner.run_all ~config ~algorithms designs in
      Alcotest.(check int) "one group per design" (List.length designs)
        (List.length grouped);
      List.iter2
        (fun d reports ->
          List.iter2
            (fun alg (r : Runner.report) ->
              let solo = Runner.run ~config alg d in
              Alcotest.(check string) "algorithm order" (Runner.name alg)
                (Runner.name r.Runner.algorithm);
              check_placement_identical
                (Printf.sprintf "run_all %s nd=%d" (Runner.name alg) nd)
                solo.Runner.placement r.Runner.placement)
            algorithms reports)
        designs grouped)
    [ 1; 4 ]

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ Alcotest.test_case "map order + lifecycle" `Quick test_pool_map_order;
          Alcotest.test_case "iter_chunks coverage" `Quick
            test_pool_iter_chunks_cover;
          Alcotest.test_case "iter_weighted coverage" `Quick
            test_pool_iter_weighted;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "nested fallback" `Quick test_pool_nested_fallback;
          Alcotest.test_case "default domains" `Quick test_default_num_domains ] );
      ( "bit-identity",
        [ Alcotest.test_case "fence territories" `Quick test_fence_bit_identity;
          Alcotest.test_case "solver chains" `Quick test_solver_bit_identity;
          Alcotest.test_case "runner" `Quick test_runner_bit_identity;
          Alcotest.test_case "run_all vs run" `Quick test_run_all_matches_run ] ) ]
