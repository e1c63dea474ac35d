(* Scalability: the MMSIM flow from bench scale up to the paper's full
   suite size. Per iteration the solver is O(n + m); the large-suite
   claims (superblue12 is ~1.29M cells at scale 1.0) rest on that
   near-linear behaviour *and* on construction staying linear in memory,
   so this section tracks both time-per-cell and peak-RSS-per-cell.

   Two views:

   - a scaling curve on the superblue12 shape, scales 0.04 -> 1.0
     (points above MCLH_SCALE are skipped, so the default 0.04 run stays
     cheap and MCLH_SCALE=1.0 exercises the full 1.29M-cell instance);
   - the fft/pci family at MCLH_SCALE, the Table 1/2-style designs.

   The curve runs smallest-first on purpose: peak RSS is read from the
   kernel's process-lifetime high-water mark (VmHWM), so with ascending
   sizes each point's reading is its own peak. *)

open Mclh_circuit
open Mclh_core
open Mclh_benchgen
open Mclh_report

let curve_scales = [ 0.04; 0.1; 0.2; 0.4; 0.7; 1.0 ]
let family = [ "fft_1"; "fft_2"; "fft_a"; "fft_b"; "pci_bridge32_a"; "pci_bridge32_b" ]

type point = {
  scale : float;
  cells : int;
  gen_s : float;
  timings : Flow.timings;
  iterations : int;
  us_per_cell : float;
  us_per_cell_iter : float;
      (* solve time normalized by cells *and* iterations: the iteration
         count varies with overlap-chain structure (not n), so this is
         the number that isolates the per-iteration O(n + m) claim *)
  cells_per_s : float;
  peak_rss_kb : int option;
  legal : bool;
}

let measure_point scale =
  let inst, gen_s =
    Mclh_par.Clock.timed (fun () ->
        Generate.generate (Spec.scaled scale (Spec.find "superblue12")))
  in
  let d = inst.Generate.design in
  let res = Flow.run d in
  let n = Design.num_cells d in
  let total_s = res.Flow.timings.Flow.total_s in
  let iters = res.Flow.solver.Solver.iterations in
  { scale;
    cells = n;
    gen_s;
    timings = res.Flow.timings;
    iterations = iters;
    us_per_cell = 1e6 *. total_s /. float_of_int n;
    us_per_cell_iter =
      1e6 *. res.Flow.timings.Flow.solve_s
      /. float_of_int (n * max 1 iters);
    cells_per_s = (if total_s > 0.0 then float_of_int n /. total_s else 0.0);
    peak_rss_kb = Mclh_obs.Obs.peak_rss_kb ();
    legal = Legality.is_legal d res.Flow.legal }

let rss_cell p =
  match p.peak_rss_kb with
  | Some kb -> Printf.sprintf "%.2f" (1024.0 *. float_of_int kb /. float_of_int p.cells)
  | None -> "n/a"

let run () =
  Util.section
    (Printf.sprintf
       "Scaling - superblue12 curve to scale %g + fft/pci family (MCLH_SCALE)"
       Util.scale);
  let table =
    Table.create
      [ { Table.title = "scale"; align = Table.Right };
        { title = "cells"; align = Right };
        { title = "gen (s)"; align = Right };
        { title = "model (s)"; align = Right };
        { title = "solve (s)"; align = Right };
        { title = "total (s)"; align = Right };
        { title = "us/cell"; align = Right };
        { title = "cells/s"; align = Right };
        { title = "peakRSS B/cell"; align = Right };
        { title = "iters"; align = Right };
        { title = "legal"; align = Right } ]
  in
  let scales =
    let cap = Util.scale in
    let below = List.filter (fun s -> s <= cap +. 1e-9) curve_scales in
    if below = [] then [ cap ] else below
  in
  let points =
    (* ascending, sequentially: each VmHWM reading then belongs to the
       point that just ran (the high-water mark only ever grows) *)
    List.map
      (fun scale ->
        let p = measure_point scale in
        Table.add_row table
          [ Printf.sprintf "%g" p.scale;
            string_of_int p.cells;
            Table.fmt_float 2 p.gen_s;
            Table.fmt_float 2 p.timings.Flow.model_s;
            Table.fmt_float 2 p.timings.Flow.solve_s;
            Table.fmt_float 2 p.timings.Flow.total_s;
            Table.fmt_float 2 p.us_per_cell;
            Printf.sprintf "%.0f" p.cells_per_s;
            rss_cell p;
            string_of_int p.iterations;
            string_of_bool p.legal ];
        p)
      scales
  in
  print_string (Table.render table);
  let spread_of f =
    let us = List.map f points in
    let mn = List.fold_left Float.min infinity us in
    let mx = List.fold_left Float.max 0.0 us in
    if mn > 0.0 then mx /. mn else 1.0
  in
  let spread = spread_of (fun p -> p.us_per_cell) in
  let iter_spread = spread_of (fun p -> p.us_per_cell_iter) in
  Printf.printf
    "(us/cell spread across the curve: %.2fx total, %.2fx per solver\n\
    \ iteration — the difference is the iteration count, which tracks\n\
    \ overlap-chain structure rather than n; peak RSS is the process\n\
    \ high-water mark after each point)\n%!"
    spread iter_spread;

  Util.section "Scaling - fft/pci family at MCLH_SCALE";
  let ftable =
    Table.create
      [ { Table.title = "design"; align = Table.Left };
        { title = "cells"; align = Right };
        { title = "iters"; align = Right };
        { title = "total (s)"; align = Right };
        { title = "us/cell"; align = Right };
        { title = "legal"; align = Right };
        { title = "converged"; align = Right } ]
  in
  List.iter
    (fun name ->
      let inst = Util.instance name in
      let d = inst.Generate.design in
      let res = Flow.run d in
      let n = Design.num_cells d in
      let total_s = res.Flow.timings.Flow.total_s in
      let us = 1e6 *. total_s /. float_of_int n in
      let legal = Legality.is_legal d res.Flow.legal in
      let converged = res.Flow.solver.Solver.converged in
      Table.add_row ftable
        [ name;
          string_of_int n;
          string_of_int res.Flow.solver.Solver.iterations;
          Table.fmt_float 3 total_s;
          Table.fmt_float 2 us;
          string_of_bool legal;
          string_of_bool converged ])
    family;
  print_string (Table.render ftable)
