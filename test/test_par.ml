(* Tests for the multicore layer: pool lifecycle, exception propagation,
   the accepted domain counts, and — the key property — bit-identity of
   the parallel and sequential paths of Fence.legalize, Runner.run and
   Incr sessions. *)

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
  (* the chunked range pattern of Model.iter_chunks: parallel_iter over
     chunk starts covers [0, n) once, each chunk inside its bounds *)
  let pool = Pool.create ~num_domains:3 in
  List.iter
    (fun (n, chunk) ->
      let hits = Array.make (max n 1) 0 in
      (* chunks run on worker domains, where Alcotest's assertion log is
         not safe to write: collect the verdict, check it on this one *)
      let bounds_ok = Atomic.make true in
      Pool.parallel_iter pool
        (fun lo ->
          let hi = min n (lo + chunk) in
          if not (0 <= lo && lo < hi && hi <= n) then Atomic.set bounds_ok false;
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done)
        (Array.init ((n + chunk - 1) / chunk) (fun c -> c * chunk));
      Alcotest.(check bool) "chunk bounds" true (Atomic.get bounds_ok);
      if n > 0 then
        Alcotest.(check (array int))
          (Printf.sprintf "each index covered once (n=%d, chunk=%d)" n chunk)
          (Array.make n 1) (Array.sub hits 0 n))
    [ (0, 4); (1, 4); (2, 4); (3, 4); (7, 4); (100, 4); (101, 4); (101, 200) ];
  Pool.shutdown pool

let test_pool_iter_weighted () =
  (* the heaviest-first shard order of Solver.solve_shards: every element
     runs exactly once whatever the pool degree and the element order,
     and disjoint writes land identically *)
  let orders =
    [ [||]; [| 0 |]; [| 4; 1; 0; 3; 2 |]; Array.init 257 (fun i -> 256 - i) ]
  in
  List.iter
    (fun num_domains ->
      let pool = Pool.create ~num_domains in
      List.iter
        (fun order ->
          let n = Array.length order in
          let hits = Array.make (max n 1) 0 in
          Pool.parallel_iter pool (fun i -> hits.(i) <- hits.(i) + 1) order;
          if n > 0 then
            Alcotest.(check (array int))
              (Printf.sprintf "each element once (n=%d, nd=%d)" n num_domains)
              (Array.make n 1) (Array.sub hits 0 n);
          (* a region over the indices 0 .. n - 1 does the same *)
          let region_hits = Array.make (max n 1) 0 in
          Pool.region pool n (fun i -> region_hits.(i) <- region_hits.(i) + 1);
          if n > 0 then
            Alcotest.(check (array int))
              (Printf.sprintf "region runs each index once (n=%d, nd=%d)" n
                 num_domains)
              (Array.make n 1) (Array.sub region_hits 0 n))
        orders;
      Pool.shutdown pool)
    [ 1; 3 ]

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
  let raised =
    try
      Pool.region pool 64 (fun i -> if i = 21 then raise (Boom i));
      false
    with Boom 21 -> true
  in
  Alcotest.(check bool) "region exception reaches the caller" true raised;
  let hits = Array.make 32 0 in
  Pool.region pool 32 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "region usable after failure" (Array.make 32 1) hits;
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
  (* so must a region entered from inside a running job *)
  let sums = Array.make 8 0 in
  Pool.parallel_iter pool
    (fun i ->
      let inner = Array.make 10 0 in
      Pool.region pool 10 (fun j -> inner.(j) <- i + j);
      sums.(i) <- Array.fold_left ( + ) 0 inner)
    (Array.init 8 Fun.id);
  Alcotest.(check (array int)) "nested region results" expect sums;
  Pool.shutdown pool

let test_default_num_domains () =
  (* the env override is read by default_num_domains; tests run without
     MCLH_DOMAINS, so it falls back to the hardware-based default *)
  let d = Pool.default_num_domains () in
  Alcotest.(check bool) "at least one" true (d >= 1);
  Alcotest.(check bool) "capped" true (d <= 8 || Sys.getenv_opt "MCLH_DOMAINS" <> None)

let test_domain_count_bounds () =
  (* 1..Pool.max_domains is the only accepted range, refused before any
     domain starts: no pool is spawned by these checks *)
  Alcotest.(check int) "runtime limit" 128 Pool.max_domains;
  List.iter
    (fun num_domains ->
      Alcotest.(check bool)
        (Printf.sprintf "Config.validate rejects %d" num_domains)
        true
        (Result.is_error (Config.validate { Config.default with num_domains })))
    [ 0; 129 ];
  Alcotest.(check bool) "Config.validate accepts 128" true
    (Result.is_ok (Config.validate { Config.default with num_domains = 128 }));
  Alcotest.check_raises "Pool.create 129"
    (Invalid_argument "Pool.create: num_domains must lie in 1..128, got 129")
    (fun () -> ignore (Pool.create ~num_domains:129));
  if Cli.available () then
    List.iter
      (fun value ->
        let code, _, err =
          Cli.run_output ~env:[ ("MCLH_DOMAINS", value) ]
            [ "run"; "-b"; "fft_2"; "-s"; "0.01" ]
        in
        Alcotest.(check int) (Printf.sprintf "MCLH_DOMAINS=%s exits 1" value) 1 code;
        Alcotest.(check bool)
          (Printf.sprintf "MCLH_DOMAINS=%s is named" value)
          true
          (Cli.contains err "MCLH_DOMAINS"))
      [ "abc"; "129" ]

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

module Incr = Mclh_incr.Incr
module Edit = Mclh_incr.Edit

(* a batch of spread-out moves plus one resize, insert and delete, drawn
   against the design as of the batch's start *)
let incr_batch (d : Design.t) seed =
  let rng = Mclh_benchgen.Rng.create seed in
  let n = Design.num_cells d and chip = d.Design.chip in
  let site () = Mclh_benchgen.Rng.float rng (float_of_int chip.Chip.num_sites) in
  let row () = Mclh_benchgen.Rng.float rng (float_of_int chip.Chip.num_rows) in
  List.init 8 (fun _ ->
      Edit.Move { cell = Mclh_benchgen.Rng.int rng n; x = site (); y = row () })
  @ [ Edit.Resize { cell = Mclh_benchgen.Rng.int rng n; width = 2 };
      Edit.Insert { width = 3; height = 1; x = site (); y = row () };
      Edit.Delete { cell = Mclh_benchgen.Rng.int rng n } ]

let test_incr_bit_identity () =
  (* an ECO session re-solves its cache misses through the solver's shard
     fan-out from warm starts: the same batches must give the same
     counters and placements at every domain count *)
  let options =
    { Mclh_benchgen.Generate.default_options with
      blockage_fraction = 0.15;
      blockage_count = 24 }
  in
  let d = (instance ~options ~scale:0.01 "fft_2").Mclh_benchgen.Generate.design in
  let sessions =
    List.map (fun nd -> (nd, Incr.create ~config:(config_with_domains nd) d)) [ 1; 2; 4 ]
  in
  let reference = List.assoc 1 sessions in
  let fanned_out = ref false in
  for batch = 1 to 4 do
    let edits = incr_batch (Incr.design reference) (40 + batch) in
    let counters (st : Incr.stats) =
      [ st.Incr.dirty_shards; st.Incr.cache_hits; st.Incr.solve_iterations;
        st.Incr.max_iterations ]
    in
    let expected = counters (Incr.apply reference edits) in
    if List.hd expected > 1 then fanned_out := true;
    List.iter
      (fun (nd, session) ->
        if nd > 1 then begin
          let tag = Printf.sprintf "batch %d nd=%d" batch nd in
          Alcotest.(check (list int))
            (tag ^ " dirty_shards, cache_hits, solve_iterations, max_iterations")
            expected
            (counters (Incr.apply session edits));
          check_placement_identical tag (Incr.legal reference) (Incr.legal session)
        end)
      sessions
  done;
  Alcotest.(check bool) "some batch re-solved several shards" true !fanned_out

let test_runner_bit_identity () =
  let d = (instance "fft_1").Mclh_benchgen.Generate.design in
  let seq = Runner.run ~config:(config_with_domains 1) Runner.Mmsim d in
  let par = Runner.run ~config:(config_with_domains 4) Runner.Mmsim d in
  check_placement_identical "runner mmsim" seq.Runner.placement par.Runner.placement;
  Alcotest.(check bool) "legal" true par.Runner.legal;
  Alcotest.(check (float 1e-12)) "displacement"
    seq.Runner.displacement.Metrics.total_manhattan
    par.Runner.displacement.Metrics.total_manhattan

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
          Alcotest.test_case "default domains" `Quick test_default_num_domains;
          Alcotest.test_case "domain count bounds" `Quick test_domain_count_bounds ] );
      ( "bit-identity",
        [ Alcotest.test_case "fence territories" `Quick test_fence_bit_identity;
          Alcotest.test_case "incr session" `Quick test_incr_bit_identity;
          Alcotest.test_case "runner" `Quick test_runner_bit_identity ] ) ]
