(* mclh: command-line driver for the mixed-cell-height legalization library.

   Subcommands:
     list       show the benchmark suite and its Table-1 statistics
     gen        generate a synthetic instance and write it to a file
     place      density-driven analytical global placement
     pipeline   place -> legalize -> refine in one flow
     legalize   legalize a design file with a chosen algorithm
     run        generate + legalize in one step (no files)
     audit      sample windows of a legalized placement, re-solve exactly
     check      verify a placement file against a design file
     stats      density/utilization analysis of a design (+ placement)
     convert    translate between the native format and Bookshelf
     eco        apply ECO edit batches through the incremental engine
     serve      legalization-as-a-service daemon over a line-JSON socket *)

open Cmdliner
open Mclh_circuit
open Mclh_benchgen
open Mclh_core

(* Bad user input — an unreadable or malformed file, an edit the design
   rejects, a generator that cannot build the instance — prints its
   message on stderr and exits 1, never an uncaught exception. *)
let fail msg =
  prerr_endline msg;
  exit 1

let guard f =
  try f () with Sys_error msg | Failure msg | Invalid_argument msg -> fail msg

let read_design path = guard (fun () -> Io.read_design ~path)

(* stats and convert also read a Bookshelf .aux *)
let read_any_design path =
  if Filename.check_suffix path ".aux" then
    guard (fun () -> Bookshelf.read ~aux:path)
  else read_design path

(* a placement file must be for [design]: same cell count *)
let read_placement design path =
  let p = guard (fun () -> Io.read_placement ~path) in
  let n = Placement.num_cells p and m = Design.num_cells design in
  if n <> m then
    fail
      (Printf.sprintf "%s: placement has %d cells, design %s has %d" path n
         design.Design.name m);
  p

let report_of design (r : Runner.report) =
  let b = Buffer.create 512 in
  let n = Design.num_cells design in
  Printf.bprintf b "algorithm        : %s\n" (Runner.name r.Runner.algorithm);
  Printf.bprintf b "cells            : %d\n" n;
  Printf.bprintf b "legal            : %b\n" r.Runner.legal;
  (match Runner.converged r with
  | Some c -> Printf.bprintf b "converged        : %b\n" c
  | None -> ());
  Printf.bprintf b "total disp       : %.1f sites (avg %.3f/cell, max %.1f)\n"
    r.Runner.displacement.Metrics.total_manhattan
    (Metrics.avg_manhattan r.Runner.displacement n)
    r.Runner.displacement.Metrics.max_manhattan;
  Printf.bprintf b "delta HPWL       : %.4f%%\n" (100.0 *. r.Runner.delta_hpwl);
  Printf.bprintf b "runtime          : %.3f s\n" r.Runner.runtime_s;
  if r.Runner.unplaced <> [] then
    Printf.bprintf b "unplaced         : %d\n" (List.length r.Runner.unplaced);
  (match r.Runner.mmsim with
  | Some f ->
    Printf.bprintf b "mmsim iterations : %d (total %d, converged %b)\n"
      f.Flow.solver.Solver.iterations f.Flow.solver.Solver.iterations_total
      f.Flow.solver.Solver.converged;
    Printf.bprintf b "fallbacks        : %d\n"
      f.Flow.solver.Solver.backends.Solver.fallbacks;
    Printf.bprintf b "subcell mismatch : %.2e sites\n" f.Flow.solver.Solver.mismatch;
    Printf.bprintf b "illegal pre-fix  : %d\n" (Flow.illegal_after_mmsim f);
    Printf.bprintf b "order preserved  : %.4f\n"
      (Order.preservation design r.Runner.placement)
  | None -> ());
  (match r.Runner.fence with
  | Some s ->
    (* fenced run: the territory aggregates play the role of the solver
       summary above *)
    Printf.bprintf b "territories      : %d\n" s.Fence.territories;
    Printf.bprintf b "mmsim iterations : %d (converged %b)\n"
      (Fence.max_iterations s) (Fence.all_converged s);
    Printf.bprintf b "subcell mismatch : %.2e sites\n" (Fence.max_mismatch s);
    Printf.bprintf b "illegal pre-fix  : %d\n" (Fence.total_illegal s);
    List.iter
      (fun (t : Fence.territory_stats) ->
        Printf.bprintf b
          "  %-14s : %d cells, %d iterations, converged %b, %d illegal\n"
          t.Fence.name t.Fence.cells t.Fence.iterations t.Fence.converged
          t.Fence.illegal_before)
      s.Fence.per_territory;
    Printf.bprintf b "order preserved  : %.4f\n"
      (Order.preservation design r.Runner.placement)
  | None -> ());
  Buffer.contents b

(* ---- common arguments ---- *)

(* [base] restricted to the values [ok] accepts: a bad value is a command
   line error (exit 124 with the message), like any malformed flag *)
let checked base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_float =
  checked Arg.float ~expected:"a positive finite number" (fun x ->
      x > 0.0 && Float.is_finite x)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let alg_arg =
  let alts = String.concat ", " (List.map Runner.name Runner.all) in
  let doc = Printf.sprintf "Legalization algorithm (%s)." alts in
  let parse s =
    match Runner.of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S (%s)" s alts))
  in
  let print ppf a = Format.pp_print_string ppf (Runner.name a) in
  Arg.(
    value
    & opt (conv (parse, print)) Runner.Mmsim
    & info [ "alg"; "a" ] ~docv:"ALG" ~doc)

let svg_arg =
  let doc = "Also render the result to an SVG file." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let strict_arg =
  let doc =
    "Exit with status 3 when the solver fails to converge within its \
     iteration budget. Without this flag a placement is still produced \
     (the repair stage fixes whatever the solver reached) and \
     non-convergence only prints a warning on stderr."
  in
  Arg.(value & flag & info [ "strict-convergence" ] ~doc)

let refine_arg =
  let doc =
    "Run the detailed-placement refinement (global moves, swaps, window \
     reordering) after legalization."
  in
  Arg.(value & flag & info [ "refine" ] ~doc)

(* ---- generator flags: gen, run, place, pipeline, audit ---- *)

type generator = {
  seed : int;
  generate : progress:bool -> Design.t;
      (* builds the instance; an unknown name or a generator failure
         prints its message on stderr and exits 1 *)
}

let generator_term =
  let bench_arg =
    let doc = "Benchmark name (see $(b,mclh list))." in
    Arg.(value & opt string "fft_2" & info [ "bench"; "b" ] ~docv:"NAME" ~doc)
  in
  let scale_arg =
    let doc = "Scale factor applied to the published cell counts." in
    Arg.(value & opt positive_float 0.02 & info [ "scale"; "s" ] ~docv:"S" ~doc)
  in
  let seed_arg =
    let doc = "Generator seed." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"K" ~doc)
  in
  let single_height_arg =
    let doc = "Section 5.3 mode: no doubled cells." in
    Arg.(value & flag & info [ "single-height" ] ~doc)
  in
  let blockage_arg =
    let doc = "Fraction of the chip area covered by fixed blockages." in
    Arg.(value & opt float 0.0 & info [ "blockages" ] ~docv:"FRAC" ~doc)
  in
  let tall_arg =
    let doc =
      "Fraction of the doubled cells regenerated as 3x/4x-height cells."
    in
    Arg.(value & opt float 0.0 & info [ "tall" ] ~docv:"FRAC" ~doc)
  in
  let fences_arg =
    let doc = "Number of exclusive fence regions to generate." in
    Arg.(value & opt int 0 & info [ "fences" ] ~docv:"K" ~doc)
  in
  let scenario_arg =
    let alts = String.concat ", " Scenario.names in
    let doc =
      Printf.sprintf
        "Generate a hard scenario instead of a Table-1 benchmark (%s). \
         Overrides $(b,--bench) and the generator knobs."
        alts
    in
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let make bench scale seed single_height blockages tall fences scenario =
    let generate ~progress =
      if progress then
        Printf.eprintf "[mclh] generating %s at scale %g\n%!"
          (Option.value scenario ~default:bench)
          scale;
      let build =
        match scenario with
        | Some s -> (
          match Scenario.of_name s with
          | Some kind -> fun () -> Scenario.generate ~seed ~scale kind
          | None ->
            fail
              (Printf.sprintf "unknown scenario %S (%s)" s
                 (String.concat ", " Scenario.names)))
        | None -> (
          match Spec.find bench with
          | exception Not_found ->
            fail (Printf.sprintf "unknown benchmark %S" bench)
          | spec ->
            let options =
              { Generate.default_options with
                seed;
                single_height_only = single_height;
                blockage_fraction = blockages;
                tall_cell_fraction = tall;
                fence_count = fences }
            in
            fun () -> Generate.generate ~options (Spec.scaled scale spec))
      in
      (guard build).Generate.design
    in
    { seed; generate }
  in
  Term.(
    const make $ bench_arg $ scale_arg $ seed_arg $ single_height_arg
    $ blockage_arg $ tall_arg $ fences_arg $ scenario_arg)

(* the [--in] design when given, else a generated instance *)
let read_or_generate input gen =
  match input with
  | Some path -> read_design path
  | None -> gen.generate ~progress:false

(* ---- solver configuration ---- *)

(* the solver flags every legalizing command shares *)
let solver_term =
  let lambda_arg =
    let doc = "Penalty factor lambda of Problem (13)." in
    Arg.(value & opt float Config.default.Config.lambda & info [ "lambda" ] ~doc)
  in
  let eps_arg =
    let doc = "MMSIM stopping tolerance (site widths)." in
    Arg.(value & opt float Config.default.Config.eps & info [ "eps" ] ~doc)
  in
  let max_iter_arg =
    let doc = "MMSIM iteration budget per solve." in
    Arg.(
      value
      & opt int Config.default.Config.max_iter
      & info [ "max-iter" ] ~docv:"N" ~doc)
  in
  (* [Config.validate] rejects a bad value while the command line parses *)
  let make lambda eps max_iter =
    Config.validate { Config.default with lambda; eps; max_iter }
  in
  Term.(cli_parse_result' (const make $ lambda_arg $ eps_arg $ max_iter_arg))

let metrics_out_arg =
  let doc =
    "Write the run's metrics (stage spans, convergence traces, repair \
     counters) to $(docv) as a versioned JSON run report. Implies metrics \
     collection; without this flag, collection follows the \
     $(b,MCLH_METRICS) environment gate."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* the run's metrics recorder: present when [--metrics-out] is given or
   the MCLH_METRICS environment gate is set *)
let recorder metrics_out =
  if metrics_out <> None || Mclh_obs.Obs.enabled_from_env () then
    Some (Mclh_obs.Obs.create ())
  else None

(* the solver flags plus [--metrics-out] and [--progress]; yields the
   config and the metrics path *)
let config_term =
  let progress_arg =
    let doc =
      "Print stage and iteration heartbeat lines to stderr while the flow \
       runs (model build, shard fan-out, solver iterations) — for watching \
       long full-scale runs. Never appears in reports or stdout and never \
       affects results."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let make config metrics_out progress =
    ({ config with Config.progress }, metrics_out)
  in
  Term.(const make $ solver_term $ metrics_out_arg $ progress_arg)

(* ---- reporting and the exit-code contract ---- *)

(* write [obs] to the [--metrics-out] path as a versioned JSON run report *)
let write_report metrics_out obs meta =
  match (metrics_out, obs) with
  | Some path, Some obs ->
    Mclh_obs.Run_report.write ~path (Mclh_obs.Run_report.to_json ~meta obs);
    Printf.printf "metrics          : %s\n" path
  | _ -> ()

let runner_meta design (r : Runner.report) =
  let open Mclh_report in
  [ ("design", Json.String design.Design.name);
    ("cells", Json.Int (Design.num_cells design));
    ("algorithm", Json.String (Runner.name r.Runner.algorithm));
    ("legal", Json.Bool r.Runner.legal);
    ("runtime_s", Json.Float r.Runner.runtime_s) ]
  @
  match Runner.converged r with
  | Some c -> [ ("converged", Json.Bool c) ]
  | None -> []

(* a typed placement failure (design beyond capacity, over-subscribed
   fence, ...) surfaces as a clear stderr report + exit 2, never a crash *)
let report_unplaced (r : Runner.report) =
  match r.Runner.unplaced with
  | [] -> ()
  | ids ->
    let ids = List.sort_uniq compare ids in
    let n = List.length ids in
    let shown = List.filteri (fun i _ -> i < 16) ids in
    Printf.eprintf
      "ERROR: %d cell(s) could not be legally placed anywhere: %s%s\n\
       (the design likely exceeds capacity; the placement written is \
       partial)\n\
       %!"
      n
      (String.concat ", " (List.map string_of_int shown))
      (if n > 16 then Printf.sprintf " (+%d more)" (n - 16) else "")

(* A non-converged solve used to look exactly like success (the repair
   stage hides it); make it loud, and fatal under --strict-convergence. *)
let warn_nonconvergence ~strict (r : Runner.report) =
  match Runner.converged r with
  | Some false ->
    let delta_inf =
      match (r.Runner.mmsim, r.Runner.fence) with
      | Some f, _ -> f.Flow.solver.Solver.delta_inf
      | None, Some s -> Fence.max_delta_inf s
      | None, None -> Float.nan
    in
    Printf.eprintf "WARNING: solver did not converge (delta_inf=%.3e)\n%!"
      delta_inf;
    strict
  | Some true | None -> false

(* The contract every legalizing command ends with: report unplaced
   cells and non-convergence on stderr; write the run report, the
   placement ([-o]) and the SVG; then exit 2 when [legal] is false and 3
   on non-convergence under [--strict-convergence]. *)
let conclude ~strict ~metrics_out ~obs ~meta ?output ?svg ~legal design
    placement (r : Runner.report) =
  report_unplaced r;
  let strict_fail = warn_nonconvergence ~strict r in
  write_report metrics_out obs meta;
  Option.iter
    (fun path ->
      Io.write_placement ~path placement;
      Printf.printf "placement        : %s\n" path)
    output;
  Option.iter
    (fun path ->
      Svg.write_file ~path design placement;
      Printf.printf "svg              : %s\n" path)
    svg;
  if not legal then exit 2;
  if strict_fail then exit 3

let maybe_refine design refine (r : Runner.report) =
  if not refine then r
  else begin
    let refined, stats = Mclh_refine.Refine.run design r.Runner.placement in
    Printf.printf "refinement       : HPWL %.1f -> %.1f (%.2f%%), %d moves, %d swaps, %d reorders\n"
      stats.Mclh_refine.Refine.hpwl_before stats.hpwl_after
      (100.0 *. Mclh_refine.Refine.improvement stats)
      stats.moves stats.swaps stats.reorders;
    { r with
      Runner.placement = refined;
      legal = Mclh_circuit.Legality.is_legal design refined;
      delta_hpwl =
        Hpwl.delta ~row_height:design.Design.chip.Chip.row_height
          design.Design.nets ~before:design.Design.global refined }
  end

(* ---- subcommands ---- *)

let list_cmd =
  let run () =
    Printf.printf "%-16s %10s %9s %8s %9s\n" "benchmark" "#singles" "#doubles"
      "density" "GP HPWL";
    List.iter
      (fun (s : Spec.t) ->
        Printf.printf "%-16s %10d %9d %8.2f %8.2fm\n" s.Spec.name s.Spec.singles
          s.Spec.doubles s.Spec.density s.Spec.gp_hpwl_m)
      Spec.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite (paper Table 1).")
    Term.(const run $ const ())

let gen_cmd =
  let out_arg =
    let doc = "Output design file." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run gen out =
    let d = gen.generate ~progress:false in
    Io.write_design ~path:out d;
    Printf.printf "wrote %s: %d cells, %d nets, chip %dx%d, density %.3f\n" out
      (Design.num_cells d)
      (Netlist.num_nets d.Design.nets)
      d.Design.chip.Chip.num_rows d.Design.chip.Chip.num_sites
      (Design.density d)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic benchmark instance.")
    Term.(const run $ generator_term $ out_arg)

let legalize_cmd =
  let in_arg =
    let doc = "Input design file." in
    Arg.(required & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output placement file." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run input alg output svg (config, metrics_out) strict refine =
    let design = read_design input in
    let obs = recorder metrics_out in
    let r = maybe_refine design refine (Runner.run ~config ?obs alg design) in
    print_string (report_of design r);
    conclude ~strict ~metrics_out ~obs ~meta:(runner_meta design r) ?output ?svg
      ~legal:r.Runner.legal design r.Runner.placement r
  in
  Cmd.v
    (Cmd.info "legalize" ~doc:"Legalize a design file.")
    Term.(
      const run $ in_arg $ alg_arg $ out_arg $ svg_arg $ config_term
      $ strict_arg $ refine_arg)

let run_cmd =
  let run gen alg svg ((config : Config.t), metrics_out) strict refine =
    let design = gen.generate ~progress:config.progress in
    let obs = recorder metrics_out in
    let r = maybe_refine design refine (Runner.run ~config ?obs alg design) in
    print_string (report_of design r);
    conclude ~strict ~metrics_out ~obs ~meta:(runner_meta design r) ?svg
      ~legal:r.Runner.legal design r.Runner.placement r
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Generate and legalize in one step.")
    Term.(
      const run $ generator_term $ alg_arg $ svg_arg $ config_term
      $ strict_arg $ refine_arg)

let audit_cmd =
  let module Audit = Mclh_audit.Audit in
  let in_arg =
    let doc =
      "Audit an existing design file instead of generating an instance."
    in
    Arg.(value & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let placement_arg =
    let doc =
      "Audit this placement file (with $(b,--in); defaults to legalizing \
       the design first)."
    in
    Arg.(
      value & opt (some string) None & info [ "p"; "placement" ] ~docv:"FILE" ~doc)
  in
  let windows_arg =
    let doc = "Number of windows to sample." in
    Arg.(value & opt int 16 & info [ "windows"; "w" ] ~docv:"K" ~doc)
  in
  let max_cells_arg =
    let doc = "Maximum movable cells per window (exact solve size)." in
    Arg.(value & opt int 8 & info [ "max-cells" ] ~docv:"N" ~doc)
  in
  let max_nodes_arg =
    let doc = "Branch-and-bound node budget per window." in
    Arg.(value & opt int 20_000 & info [ "max-nodes" ] ~docv:"N" ~doc)
  in
  let run gen input placement_path alg windows max_cells max_nodes
      (config, metrics_out) =
    let design = read_or_generate input gen in
    let placement =
      match (input, placement_path) with
      | Some _, Some p -> read_placement design p
      | _ ->
        let r = Runner.run ~config alg design in
        report_unplaced r;
        r.Runner.placement
    in
    let obs = recorder metrics_out in
    let s =
      Audit.run ~seed:gen.seed ~count:windows ~max_cells ~max_nodes ?obs
        design placement
    in
    Printf.printf "design           : %s (%d cells)\n" design.Design.name
      (Design.num_cells design);
    Printf.printf "windows sampled  : %d\n" s.Audit.sampled;
    Printf.printf "audited (exact)  : %d\n" s.Audit.audited;
    Printf.printf "certified optimal: %d\n" s.Audit.certified;
    Printf.printf "max gap          : %.4f sq.sites\n" s.Audit.max_gap;
    Printf.printf "total gap        : %.4f sq.sites\n" s.Audit.total_gap;
    Printf.printf "infeasible       : %d\n" s.Audit.infeasible;
    Printf.printf "budget exceeded  : %d\n" s.Audit.budget_out;
    List.iteri
      (fun i (w : Audit.window_report) ->
        let status =
          match w.Audit.status with
          | Audit.Certified -> "certified"
          | Audit.Gap g -> Printf.sprintf "gap %.4f" g
          | Audit.Unproven g -> Printf.sprintf "gap <= %.4f (unproven)" g
          | Audit.Window_infeasible -> "infeasible"
          | Audit.Budget_out -> "budget out"
        in
        Printf.printf
          "  window %2d : rows %d+%d, x [%d, %d), %d cells, %d nodes, %s\n" i
          w.Audit.window.Mclh_audit.Window.row0
          w.Audit.window.Mclh_audit.Window.rows
          w.Audit.window.Mclh_audit.Window.x0
          w.Audit.window.Mclh_audit.Window.x1 w.Audit.cells w.Audit.nodes
          status)
      s.Audit.reports;
    write_report metrics_out obs
      Mclh_report.Json.
        [ ("design", String design.Design.name);
          ("cells", Int (Design.num_cells design));
          ("windows", Int s.Audit.sampled);
          ("certified", Int s.Audit.certified);
          ("max_gap", Float s.Audit.max_gap) ]
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Sample small windows of a legalized placement and re-solve each \
          exactly (branch-and-bound over orderings, convex QP per leaf); \
          report per-window optimality gaps. A zero gap certifies the \
          window is optimally placed given its surroundings.")
    Term.(
      const run $ generator_term $ in_arg $ placement_arg $ alg_arg
      $ windows_arg $ max_cells_arg $ max_nodes_arg $ config_term)

let check_cmd =
  let design_arg =
    let doc = "Design file." in
    Arg.(required & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let placement_arg =
    let doc = "Placement file." in
    Arg.(
      required & opt (some string) None & info [ "p"; "placement" ] ~docv:"FILE" ~doc)
  in
  let run design_path placement_path =
    let design = read_design design_path in
    let placement = read_placement design placement_path in
    let violations = Legality.check design placement in
    let rh = design.Design.chip.Chip.row_height in
    let m = Metrics.displacement ~row_height:rh ~before:design.Design.global placement in
    Printf.printf "cells      : %d\n" (Design.num_cells design);
    Printf.printf "violations : %d\n" (List.length violations);
    List.iteri
      (fun i v -> if i < 20 then Format.printf "  %a@." Legality.pp_violation v)
      violations;
    if List.length violations > 20 then Printf.printf "  ...\n";
    Printf.printf "total disp : %.1f sites\n" m.Metrics.total_manhattan;
    Printf.printf "delta HPWL : %.4f%%\n"
      (100.0
      *. Hpwl.delta ~row_height:rh design.Design.nets ~before:design.Design.global
           placement);
    if violations <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a placement against a design.")
    Term.(const run $ design_arg $ placement_arg)

let stats_cmd =
  let design_arg =
    let doc = "Design file (native format or Bookshelf .aux)." in
    Arg.(required & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let placement_arg =
    let doc = "Placement file (defaults to the design's global placement)." in
    Arg.(value & opt (some string) None & info [ "p"; "placement" ] ~docv:"FILE" ~doc)
  in
  let svg_arg =
    let doc = "Write the utilization heatmap to an SVG file." in
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)
  in
  let run design_path placement_path svg =
    let design = read_any_design design_path in
    let placement =
      match placement_path with
      | Some p -> read_placement design p
      | None -> design.Design.global
    in
    let n = Design.num_cells design in
    Printf.printf "design        : %s\n" design.Design.name;
    Printf.printf "cells         : %d (%s)\n" n
      (Design.count_by_height design
      |> List.map (fun (h, c) -> Printf.sprintf "%dx height %d" c h)
      |> String.concat ", ");
    Printf.printf "chip          : %d rows x %d sites (row height %g)\n"
      design.Design.chip.Chip.num_rows design.Design.chip.Chip.num_sites
      design.Design.chip.Chip.row_height;
    Printf.printf "blockages     : %d\n" (Array.length design.Design.blockages);
    Printf.printf "density       : %.3f\n" (Design.density design);
    Printf.printf "nets          : %d (HPWL %.1f)\n"
      (Netlist.num_nets design.Design.nets)
      (Hpwl.total ~row_height:design.Design.chip.Chip.row_height
         design.Design.nets placement);
    let m = Density.map design placement in
    let o = Density.overflow m in
    Printf.printf "bin grid      : %d x %d\n" m.Density.bins_x m.Density.bins_y;
    Printf.printf "utilization   : mean %.3f, max %.3f\n" o.Density.mean_utilization
      o.Density.max_utilization;
    Printf.printf "overflow      : %d bins over capacity, ratio %.4f\n"
      o.Density.overflowed_bins o.Density.overflow_ratio;
    let rows = Density.row_utilization design placement in
    let worst = Array.fold_left Float.max 0.0 rows in
    Printf.printf "rows          : worst utilization %.3f\n" worst;
    Format.printf "%a@." Density.pp_histogram m;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Density.to_svg m);
        close_out oc;
        Printf.printf "heatmap       : %s\n" path)
      svg
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Density and utilization analysis.")
    Term.(const run $ design_arg $ placement_arg $ svg_arg)

let eco_cmd =
  let in_arg =
    let doc = "Input design file." in
    Arg.(required & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let edits_arg =
    let doc = "Edits file (see the mclh-edits format in Mclh_incr.Edit)." in
    Arg.(
      required & opt (some string) None & info [ "e"; "edits" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output placement file (state after the last batch)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let out_design_arg =
    let doc =
      "Also write the post-edit design (inserts/deletes renumber cells, so \
       the output placement only checks against this design, not the \
       input)."
    in
    Arg.(
      value & opt (some string) None & info [ "out-design" ] ~docv:"FILE" ~doc)
  in
  let verify_arg =
    let doc =
      "After every batch, re-legalize that batch's post-edit design from \
       cold; report the worst position difference over all batches and the \
       MMSIM iterations the incremental engine saved against the summed cold \
       runs."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run input edits_path output out_design config strict verify metrics_out =
    let design = read_design input in
    let batches = guard (fun () -> Mclh_incr.Edit.read_file ~path:edits_path) in
    if batches = [] then fail (Printf.sprintf "no batches in %s" edits_path);
    let obs = recorder metrics_out in
    let t0 = Mclh_par.Clock.now () in
    let session = guard (fun () -> Mclh_incr.Incr.create ~config ?obs design) in
    let initial_s = Mclh_par.Clock.now () -. t0 in
    Printf.printf "initial legalize : %d cells in %.3f s\n"
      (Design.num_cells design) initial_s;
    Printf.printf "%5s %6s %7s %12s %5s %6s %11s %5s\n" "batch" "edits"
      "touched" "dirty/shards" "hits" "iters" "latency(ms)" "conv";
    let total_iters = ref 0
    and total_latency = ref 0.0
    and nonconverged = ref 0 in
    let cold_iters = ref 0
    and cold_s = ref 0.0
    and max_dx = ref 0.0
    and max_dy = ref 0.0 in
    List.iteri
      (fun i batch ->
        let st = guard (fun () -> Mclh_incr.Incr.apply session batch) in
        total_iters := !total_iters + st.Mclh_incr.Incr.solve_iterations;
        total_latency := !total_latency +. st.Mclh_incr.Incr.latency_s;
        if not st.Mclh_incr.Incr.converged then incr nonconverged;
        Printf.printf "%5d %6d %7d %6d/%-5d %5d %6d %11.2f %5b\n" (i + 1)
          st.Mclh_incr.Incr.edits st.Mclh_incr.Incr.touched_cells
          st.Mclh_incr.Incr.dirty_shards st.Mclh_incr.Incr.shards
          st.Mclh_incr.Incr.cache_hits st.Mclh_incr.Incr.solve_iterations
          (1000.0 *. st.Mclh_incr.Incr.latency_s)
          st.Mclh_incr.Incr.converged;
        if verify then begin
          let cold, s =
            Mclh_par.Clock.timed (fun () ->
                Flow.run ~config (Mclh_incr.Incr.design session))
          in
          let incr_legal = Mclh_incr.Incr.legal session in
          let open Mclh_linalg in
          cold_s := !cold_s +. s;
          cold_iters := !cold_iters + cold.Flow.solver.Solver.iterations_total;
          max_dx :=
            Float.max !max_dx
              (Vec.dist_inf cold.Flow.legal.Placement.xs incr_legal.Placement.xs);
          max_dy :=
            Float.max !max_dy
              (Vec.dist_inf cold.Flow.legal.Placement.ys incr_legal.Placement.ys)
        end)
      batches;
    Printf.printf "batches          : %d in %.3f s (%d solve iterations)\n"
      (List.length batches) !total_latency !total_iters;
    Printf.printf "cache            : %d entries\n"
      (Mclh_incr.Incr.cache_entries session);
    let design' = Mclh_incr.Incr.design session in
    let incr_legal = Mclh_incr.Incr.legal session in
    let legal = Legality.is_legal design' incr_legal in
    let all_converged = !nonconverged = 0 in
    Printf.printf "legal            : %b\n" legal;
    Printf.printf "converged        : %b\n" all_converged;
    if not all_converged then
      Printf.eprintf
        "WARNING: solver did not converge (%d of %d batches hit the \
         iteration budget)\n\
         %!"
        !nonconverged (List.length batches);
    if verify then begin
      let saved = !cold_iters - !total_iters in
      Printf.printf "verify           : max |dx| %.2e sites, max |dy| %.2e rows\n"
        !max_dx !max_dy;
      Printf.printf "iterations saved : %d of %d cold (%.1f%%)\n" saved
        !cold_iters
        (if !cold_iters = 0 then 0.0
         else 100.0 *. float_of_int saved /. float_of_int !cold_iters);
      Printf.printf "cold re-runs     : %.3f s (incremental total %.3f s)\n"
        !cold_s !total_latency
    end;
    write_report metrics_out obs
      Mclh_report.Json.
        [ ("design", String design'.Design.name);
          ("cells", Int (Design.num_cells design'));
          ("batches", Int (Mclh_incr.Incr.num_batches session));
          ("legal", Bool legal);
          ("converged", Bool all_converged) ];
    Option.iter
      (fun path ->
        Io.write_placement ~path incr_legal;
        Printf.printf "placement        : %s\n" path)
      output;
    Option.iter
      (fun path ->
        Io.write_design ~path design';
        Printf.printf "design           : %s\n" path)
      out_design;
    if not legal then exit 2;
    if strict && not all_converged then exit 3
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:
         "Apply ECO edit batches with the incremental re-legalization engine.")
    Term.(
      const run $ in_arg $ edits_arg $ out_arg $ out_design_arg $ solver_term
      $ strict_arg $ verify_arg $ metrics_out_arg)

(* ---- global placement ---- *)

(* the placer flags [place] and [pipeline] share *)
let gp_options_term =
  let gp_rounds_arg =
    let doc = "Maximum global-placement rounds." in
    Arg.(
      value
      & opt positive_int Mclh_gp.Gp.default_options.Mclh_gp.Gp.iterations
      & info [ "gp-rounds" ] ~docv:"N" ~doc)
  in
  let target_density_arg =
    let doc = "Target utilization per density bin." in
    Arg.(
      value
      & opt positive_float Mclh_gp.Gp.default_options.Mclh_gp.Gp.target_density
      & info [ "target-density" ] ~docv:"D" ~doc)
  in
  let stop_overflow_arg =
    let doc =
      "Stop spreading once the density overflow falls to this fraction of \
       the movable area."
    in
    Arg.(
      value
      & opt float Mclh_gp.Gp.default_options.Mclh_gp.Gp.stop_overflow
      & info [ "stop-overflow" ] ~docv:"F" ~doc)
  in
  let grid_arg =
    let doc =
      "Density bins per side (a power of two; default picked from the cell \
       count)."
    in
    let power_of_two =
      checked Arg.int ~expected:"a power of two" (fun m ->
          m > 0 && m land (m - 1) = 0)
    in
    Arg.(value & opt (some power_of_two) None & info [ "grid" ] ~docv:"M" ~doc)
  in
  let make iterations target_density stop_overflow grid =
    { Mclh_gp.Gp.default_options with
      Mclh_gp.Gp.iterations;
      target_density;
      stop_overflow;
      grid }
  in
  Term.(
    const make $ gp_rounds_arg $ target_density_arg $ stop_overflow_arg
    $ grid_arg)

let gp_round_table (stats : Mclh_gp.Gp.stats) =
  Printf.printf "%5s %9s %11s %9s %9s %8s %10s\n" "round" "alpha" "HPWL"
    "overflow" "max util" "cg iters" "density ms";
  List.iter
    (fun (r : Mclh_gp.Gp.round) ->
      Printf.printf "%5d %9.4f %11.0f %8.1f%% %9.2f %8d %10.2f\n"
        r.Mclh_gp.Gp.index r.Mclh_gp.Gp.alpha r.Mclh_gp.Gp.hpwl
        (100.0 *. r.Mclh_gp.Gp.overflow)
        r.Mclh_gp.Gp.max_utilization r.Mclh_gp.Gp.cg_iterations
        (1000.0 *. r.Mclh_gp.Gp.density_seconds))
    stats.Mclh_gp.Gp.rounds

(* the design with the GP output installed as its global placement — the
   instance the legalization flow consumes *)
let design_with_global (design : Design.t) pl =
  Design.make ~blockages:design.Design.blockages
    ~regions:design.Design.regions ~name:design.Design.name
    ~chip:design.Design.chip ~cells:design.Design.cells ~global:pl
    ~nets:design.Design.nets ()

let place_cmd =
  let in_arg =
    let doc =
      "Place this design file instead of generating an instance (its \
       global placement is discarded; the placer starts from the netlist)."
    in
    Arg.(value & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output placement file (the fractional GP positions)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let out_design_arg =
    let doc =
      "Write the design with the GP output installed as its global \
       placement — the file $(b,mclh legalize) consumes."
    in
    Arg.(
      value & opt (some string) None & info [ "out-design" ] ~docv:"FILE" ~doc)
  in
  let edits_out_arg =
    let doc =
      "Write the per-round placement deltas as mclh-edits batches: replay \
       the placer's trajectory through $(b,mclh eco) against the design \
       written by $(b,--edits-base) (whose global placement is the first \
       round's snapshot)."
    in
    Arg.(
      value & opt (some string) None & info [ "edits-out" ] ~docv:"FILE" ~doc)
  in
  let edits_base_arg =
    let doc =
      "With $(b,--edits-out): write the base design the edit batches \
       apply to."
    in
    Arg.(
      value & opt (some string) None & info [ "edits-base" ] ~docv:"FILE" ~doc)
  in
  let run gen input output out_design edits_out edits_base svg metrics_out
      options =
    let design = read_or_generate input gen in
    let obs = recorder metrics_out in
    let snapshots = ref [] in
    let on_round =
      if edits_out = None then None
      else Some (fun _ pl -> snapshots := Placement.copy pl :: !snapshots)
    in
    let (gp, stats), seconds =
      Mclh_par.Clock.timed (fun () ->
          Mclh_gp.Gp.place ~options ?obs ?on_round design)
    in
    let placed = design_with_global design gp in
    let illegal_pre = Legality.count_illegal placed gp in
    Printf.printf "design           : %s (%d cells, %d nets)\n"
      design.Design.name (Design.num_cells design)
      (Netlist.num_nets design.Design.nets);
    gp_round_table stats;
    Printf.printf "rounds           : %d (grid %dx%d)\n"
      (List.length stats.Mclh_gp.Gp.rounds)
      stats.Mclh_gp.Gp.grid stats.Mclh_gp.Gp.grid;
    Printf.printf "final HPWL       : %.0f\n" stats.Mclh_gp.Gp.final_hpwl;
    Printf.printf "final overflow   : %.2f%%\n"
      (100.0 *. stats.Mclh_gp.Gp.final_overflow);
    Printf.printf "illegal cells    : %d (pre-legalization)\n" illegal_pre;
    Printf.printf "runtime          : %.3f s\n" seconds;
    write_report metrics_out obs
      Mclh_report.Json.
        [ ("design", String design.Design.name);
          ("cells", Int (Design.num_cells design));
          ("rounds", Int (List.length stats.Mclh_gp.Gp.rounds));
          ("grid", Int stats.Mclh_gp.Gp.grid);
          ("final_hpwl", Float stats.Mclh_gp.Gp.final_hpwl);
          ("final_overflow", Float stats.Mclh_gp.Gp.final_overflow);
          ("illegal_pre", Int illegal_pre) ];
    Option.iter
      (fun path ->
        Io.write_placement ~path gp;
        Printf.printf "placement        : %s\n" path)
      output;
    Option.iter
      (fun path ->
        Io.write_design ~path placed;
        Printf.printf "design           : %s\n" path)
      out_design;
    (match edits_out with
    | None -> ()
    | Some path ->
      let snaps = List.rev !snapshots in
      Mclh_gp.Eco_bridge.write ~path snaps;
      Printf.printf "edits            : %s (%d batches)\n" path
        (List.length (Mclh_gp.Eco_bridge.batches_of_rounds snaps));
      Option.iter
        (fun base ->
          (match snaps with
          | first :: _ -> Io.write_design ~path:base (design_with_global design first)
          | [] -> ());
          Printf.printf "edits base       : %s\n" base)
        edits_base);
    Option.iter
      (fun path ->
        Svg.write_file ~path placed gp;
        Printf.printf "svg              : %s\n" path)
      svg
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Density-driven analytical global placement: quadratic wirelength \
          (CG) alternating with FFT-solved Poisson density forces. The \
          output is fractional and overlapping — feed it to $(b,mclh \
          legalize) or use $(b,mclh pipeline).")
    Term.(
      const run $ generator_term $ in_arg $ out_arg $ out_design_arg
      $ edits_out_arg $ edits_base_arg $ svg_arg $ metrics_out_arg
      $ gp_options_term)

let pipeline_cmd =
  let in_arg =
    let doc = "Run the pipeline on this design file (netlist only; its \
               global placement is discarded)." in
    Arg.(value & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output placement file (final legal positions)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let no_refine_arg =
    let doc = "Skip the detailed-placement refinement stage." in
    Arg.(value & flag & info [ "no-refine" ] ~doc)
  in
  let run gen input output svg alg ((config : Config.t), metrics_out) strict
      no_refine options =
    let design = read_or_generate input gen in
    let rh = design.Design.chip.Chip.row_height in
    let progress = config.progress in
    let obs = recorder metrics_out in
    if progress then
      Printf.eprintf "[mclh] pipeline: global placement (%d cells)\n%!"
        (Design.num_cells design);
    (* stage 1: global placement *)
    let (gp, gp_stats), gp_s =
      Mclh_par.Clock.timed (fun () -> Mclh_gp.Gp.place ~options ?obs design)
    in
    Mclh_obs.Obs.record_span obs "pipeline/gp" gp_s;
    let placed = design_with_global design gp in
    let illegal_pre = Legality.count_illegal placed gp in
    Printf.printf "design           : %s (%d cells, %d nets)\n"
      design.Design.name (Design.num_cells design)
      (Netlist.num_nets design.Design.nets);
    Printf.printf "gp               : %d rounds, HPWL %.0f, overflow %.2f%%, \
                   %d illegal, %.3f s\n"
      (List.length gp_stats.Mclh_gp.Gp.rounds)
      gp_stats.Mclh_gp.Gp.final_hpwl
      (100.0 *. gp_stats.Mclh_gp.Gp.final_overflow)
      illegal_pre gp_s;
    (* stage 2: legalization *)
    if progress then Printf.eprintf "[mclh] pipeline: legalization\n%!";
    let r, legalize_s =
      Mclh_par.Clock.timed (fun () -> Runner.run ~config ?obs alg placed)
    in
    Mclh_obs.Obs.record_span obs "pipeline/legalize" legalize_s;
    Printf.printf "legalize         : %s, legal %b, dHPWL %+.2f%%, %.3f s\n"
      (Runner.name alg) r.Runner.legal
      (100.0 *. r.Runner.delta_hpwl)
      legalize_s;
    (* stage 3: refinement *)
    let final, refine_line =
      if no_refine then (r.Runner.placement, None)
      else begin
        if progress then Printf.eprintf "[mclh] pipeline: refinement\n%!";
        let (refined, stats), refine_s =
          Mclh_par.Clock.timed (fun () ->
              Mclh_refine.Refine.run placed r.Runner.placement)
        in
        Mclh_obs.Obs.record_span obs "pipeline/refine" refine_s;
        ( refined,
          Some
            (Printf.sprintf
               "refine           : HPWL %.0f -> %.0f (%.2f%%), %.3f s"
               stats.Mclh_refine.Refine.hpwl_before stats.hpwl_after
               (100.0 *. Mclh_refine.Refine.improvement stats)
               refine_s) )
      end
    in
    Option.iter print_endline refine_line;
    let legal = Legality.is_legal placed final in
    let dhpwl =
      Hpwl.delta ~row_height:rh placed.Design.nets ~before:gp final
    in
    Printf.printf "pipeline         : legal %b, dHPWL vs GP %+.2f%%\n" legal
      (100.0 *. dhpwl);
    let meta =
      Mclh_report.Json.
        [ ("design", String design.Design.name);
          ("cells", Int (Design.num_cells design));
          ("gp_rounds", Int (List.length gp_stats.Mclh_gp.Gp.rounds));
          ("gp_overflow", Float gp_stats.Mclh_gp.Gp.final_overflow);
          ("illegal_pre", Int illegal_pre);
          ("legal", Bool legal);
          ("delta_hpwl_vs_gp", Float dhpwl) ]
    in
    conclude ~strict ~metrics_out ~obs ~meta ?output ?svg ~legal placed final r
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "The full flow in one command: density-driven global placement, \
          then legalization, then detailed-placement refinement — with \
          per-stage spans in the metrics report. Exit 0 iff the final \
          placement is legal.")
    Term.(
      const run $ generator_term $ in_arg $ out_arg $ svg_arg $ alg_arg
      $ config_term $ strict_arg $ no_refine_arg $ gp_options_term)

let convert_cmd =
  let in_arg =
    let doc = "Input design: native file or Bookshelf .aux." in
    Arg.(required & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc =
      "Output: a path ending in .mclh for the native format, anything else \
       is used as a Bookshelf basename (five files are written)."
    in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run input output =
    let design = read_any_design input in
    if Filename.check_suffix output ".mclh" then begin
      Io.write_design ~path:output design;
      Printf.printf "wrote %s (native)\n" output
    end
    else begin
      Bookshelf.write ~basename:output design;
      Printf.printf "wrote %s.{aux,nodes,nets,wts,pl,scl} (bookshelf)\n" output
    end
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between native and Bookshelf formats.")
    Term.(const run $ in_arg $ out_arg)

let serve_cmd =
  let module Serve = Mclh_serve in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv) (the default, at \
               /tmp/mclh.sock)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc = "Listen on TCP at $(docv) instead of a Unix socket; port 0 \
               binds an ephemeral port (the resolved address is printed on \
               startup)." in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let max_sessions_arg =
    let doc = "Maximum concurrently open sessions." in
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_sessions
      & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc = "Admission control: maximum edit batches admitted (queued or \
               applying) across all sessions; further batches are refused \
               with a $(b,busy) reply." in
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_inflight
      & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let run socket tcp max_sessions max_inflight config =
    let addr =
      match (socket, tcp) with
      | Some _, Some _ ->
        prerr_endline "mclh serve: --socket and --tcp are mutually exclusive";
        exit 2
      | Some path, None -> Serve.Protocol.Unix_sock path
      | None, Some hp -> (
        match String.rindex_opt hp ':' with
        | Some i -> (
          let host = String.sub hp 0 i
          and port = String.sub hp (i + 1) (String.length hp - i - 1) in
          let host = if host = "" then "127.0.0.1" else host in
          match int_of_string_opt port with
          | Some p -> Serve.Protocol.Tcp (host, p)
          | None ->
            prerr_endline "mclh serve: --tcp wants HOST:PORT";
            exit 2)
        | None ->
          prerr_endline "mclh serve: --tcp wants HOST:PORT";
          exit 2)
      | None, None -> Serve.Protocol.Unix_sock "/tmp/mclh.sock"
    in
    let config =
      { Serve.Server.incr_config = config;
        max_sessions;
        max_inflight }
    in
    let srv = Serve.Server.create ~config () in
    let bound = Serve.Server.start srv addr in
    Printf.printf "mclh serve: listening on %s (protocol v%d)\n%!"
      (Serve.Protocol.pp_address bound) Serve.Protocol.version;
    let on_signal = Sys.Signal_handle (fun _ -> Serve.Server.shutdown srv) in
    (try Sys.set_signal Sys.sigint on_signal with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm on_signal with Invalid_argument _ -> ());
    Serve.Server.wait srv;
    Serve.Server.stop srv;
    Printf.printf "mclh serve: stopped\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve incremental legalization sessions over a line-delimited \
          JSON protocol (one request per line; see DESIGN.md \"Serving\"). \
          Try: echo '{\"op\":\"ping\"}' | socat - UNIX:/tmp/mclh.sock")
    Term.(
      const run $ socket_arg $ tcp_arg $ max_sessions_arg $ max_inflight_arg
      $ solver_term)

let () =
  (* [MCLH_DOMAINS] is the only input that can make [Config.default]
     invalid, so the error names it; checked before any command starts
     a domain *)
  (match Config.validate Config.default with
  | Ok _ -> ()
  | Error msg ->
    fail
      (Printf.sprintf "mclh: MCLH_DOMAINS=%S is not a domain count: %s"
         (Option.value (Sys.getenv_opt "MCLH_DOMAINS") ~default:"")
         msg));
  let info =
    Cmd.info "mclh" ~version:"1.0.0"
      ~doc:"Mixed-cell-height legalization via LCP + MMSIM (DAC'17 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; gen_cmd; place_cmd; pipeline_cmd; legalize_cmd;
            run_cmd; audit_cmd; check_cmd; stats_cmd; convert_cmd; eco_cmd;
            serve_cmd ]))
