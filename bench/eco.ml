(* ECO incremental-vs-full benchmark (the lib/incr engine).

   One blockage-rich fft_2 instance is legalized cold once, then a
   sequence of ECO batches — 1% of the cells nudged to new global
   positions — is replayed twice: through the incremental session
   (dirty-shard re-solve, warm-started, cache-backed) and as a cold full
   re-legalization of the same end state. Blockages matter: they cut the
   rows into many short segments, so the LCP decomposes into many small
   components and the dirty set of a local edit stays small — the regime
   the engine is built for (a giant single-component design would gain
   little; see DESIGN.md).

   Reported: per-batch latency, end-state equivalence (must be <= 1e-9),
   the incremental/full speedup and the iteration savings. *)

open Mclh_circuit
open Mclh_core

let tolerance = 1e-9

let position_diff (a : Placement.t) (b : Placement.t) =
  let open Mclh_linalg in
  Float.max
    (Vec.dist_inf a.Placement.xs b.Placement.xs)
    (Vec.dist_inf a.Placement.ys b.Placement.ys)

let run () =
  Util.section "ECO incremental re-legalization (lib/incr)";
  let options =
    { Mclh_benchgen.Generate.default_options with
      blockage_fraction = 0.15;
      blockage_count = 32 }
  in
  let inst =
    Mclh_benchgen.Generate.generate ~options
      (Mclh_benchgen.Spec.scaled Util.scale (Mclh_benchgen.Spec.find "fft_2"))
  in
  let design = inst.Mclh_benchgen.Generate.design in
  let n = Design.num_cells design in
  let chip = design.Design.chip in
  (* a tight tolerance keeps the MMSIM solve the dominant stage of the
     cold flow, which is what an ECO engine competes against *)
  let config = { Config.default with eps = 1e-8 } in
  let session = Mclh_incr.Incr.create ~config design in
  let rng = Mclh_benchgen.Rng.create 42 in
  let num_batches = if Util.fast_mode then 3 else 5 in
  let edits_per_batch = max 1 (n / 100) in
  Printf.printf "fft_2 at scale %g: %d cells, %d batches of %d moves (1%%)\n%!"
    Util.scale n num_batches edits_per_batch;
  Printf.printf "%5s %12s %5s %6s %11s %9s %9s %9s\n" "batch" "dirty/shards"
    "hits" "iters" "latency(ms)" "cold(ms)" "speedup" "max|dpos|";
  let incr_total = ref 0.0
  and full_total = ref 0.0
  and incr_iters = ref 0
  and full_iters = ref 0
  and worst_diff = ref 0.0 in
  for b = 1 to num_batches do
    let d = Mclh_incr.Incr.design session in
    let cur_n = Design.num_cells d in
    let xs = d.Design.global.Placement.xs
    and ys = d.Design.global.Placement.ys in
    let clamp lo hi v = Float.min hi (Float.max lo v) in
    let batch =
      List.init edits_per_batch (fun _ ->
          (* an ECO-style local nudge: a few sites / a fraction of a row
             around the cell's current global position *)
          let cell = Mclh_benchgen.Rng.int rng cur_n in
          let x =
            clamp 0.0
              (float_of_int chip.Chip.num_sites)
              (xs.(cell) +. (5.0 *. Mclh_benchgen.Rng.gaussian rng))
          and y =
            clamp 0.0
              (float_of_int (chip.Chip.num_rows - 1))
              (ys.(cell) +. (0.75 *. Mclh_benchgen.Rng.gaussian rng))
          in
          Mclh_incr.Edit.Move { cell; x; y })
    in
    let st = Mclh_incr.Incr.apply session batch in
    let cold, cold_s =
      Mclh_par.Clock.timed (fun () ->
          Flow.run ~config (Mclh_incr.Incr.design session))
    in
    let diff = position_diff cold.Flow.legal (Mclh_incr.Incr.legal session) in
    incr_total := !incr_total +. st.Mclh_incr.Incr.latency_s;
    full_total := !full_total +. cold_s;
    incr_iters := !incr_iters + st.Mclh_incr.Incr.solve_iterations;
    full_iters := !full_iters + cold.Flow.solver.Solver.iterations_total;
    worst_diff := Float.max !worst_diff diff;
    Printf.printf "%5d %6d/%-5d %5d %6d %11.2f %9.2f %8.1fx %9.1e\n%!" b
      st.Mclh_incr.Incr.dirty_shards st.Mclh_incr.Incr.shards
      st.Mclh_incr.Incr.cache_hits st.Mclh_incr.Incr.solve_iterations
      (1000.0 *. st.Mclh_incr.Incr.latency_s)
      (1000.0 *. cold_s)
      (if st.Mclh_incr.Incr.latency_s > 0.0 then
         cold_s /. st.Mclh_incr.Incr.latency_s
       else 1.0)
      diff
  done;
  let speedup =
    if !incr_total > 0.0 then !full_total /. !incr_total else 1.0
  in
  Printf.printf
    "total: incremental %.4fs vs full %.4fs — %.1fx speedup, %d vs %d \
     iterations, max |dpos| %.1e (tolerance %g)\n%!"
    !incr_total !full_total speedup !incr_iters !full_iters !worst_diff
    tolerance;
  if !worst_diff > tolerance then
    Printf.printf "WARNING: end-state equivalence violated!\n%!"
