(* Helpers shared by the workloads: timing loops, peak memory, output
   gates and the traced composition of the legalization flow. *)

open Mclh_circuit
open Mclh_core

let now = Mclh_par.Clock.now

(* records, traces and the daemon's socket and design files (gitignored) *)
let out_dir = "perfbench_out"

(* what one workload run reports; [layers] is filled by traced runs *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  e2e : (string * float) list;
  layers : (string * float) list;
  notes : (string * Mclh_report.Json.t) list;
      (** design, scale and seeds of the workload, for the record *)
}

(* One set-up, timed alone after a full collection, its wall time added
   to [times]; a fresh set-up each time, so no cache survives between
   them. A workload spreads its set-ups over the whole run, between the
   timed operations, and reports their median: the shared machine the
   benchmark was tuned on switches between a fast and a slow state that
   last tens of seconds, and set-ups bunched at the start of a run all
   fell in whichever state the run began in. *)
let timed_setup times f =
  Gc.compact ();
  let t0 = now () in
  let v = f () in
  times := (now () -. t0) :: !times;
  v

(* this process's peak resident set (VmHWM), in MB *)
let peak_rss_mb () =
  match Mclh_obs.Obs.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM in /proc/self/status"

(* [f] repeated until [seconds] have passed and at least [min_reps] ran,
   stopping only after a whole number of [round]s; each call gets its
   input from [prepare], untimed, and is timed alone after a full
   collection. Returns (result, seconds) per rep, and the peak RSS in MB
   once the first rep is done. The runtime keeps freed heap for reuse
   rather than returning it, so a later rep can raise the process peak;
   reading it after the first rep keeps the figure independent of how
   many reps fit in [seconds]. *)
let repeat ?(round = 1) ~seconds ~min_reps ~prepare f =
  let t0 = now () in
  let rec go k acc rss =
    if k >= min_reps && k mod round = 0 && now () -. t0 >= seconds then
      (List.rev acc, rss)
    else begin
      let input = prepare () in
      Gc.compact ();
      let t = now () in
      let v = f input in
      let dt = now () -. t in
      go (k + 1) ((v, dt) :: acc) (if k = 0 then peak_rss_mb () else rss)
    end
  in
  go 0 [] Float.nan

let floats_json l = Mclh_report.Json.List (List.map (fun v -> Mclh_report.Json.Float v) l)

let bit_identical (a : Placement.t) (b : Placement.t) =
  let eq u v =
    Array.length u = Array.length v
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         u v
  in
  eq a.Placement.xs b.Placement.xs && eq a.Placement.ys b.Placement.ys

let row_height (d : Design.t) = d.Design.chip.Chip.row_height

let hpwl (d : Design.t) placement =
  Hpwl.total ~row_height:(row_height d) d.Design.nets placement

(* total Manhattan displacement from [before], in site widths *)
let displacement (d : Design.t) ~before placement =
  (Metrics.displacement ~row_height:(row_height d) ~before placement)
    .Metrics.total_manhattan

let generate ?(blockages = 0.0) ~bench ~scale seed =
  Span.with_ "benchgen.generate" (fun () ->
      let options =
        { Mclh_benchgen.Generate.default_options with
          seed;
          blockage_fraction = blockages;
          blockage_count = (if blockages > 0.0 then 32 else 0) }
      in
      (Mclh_benchgen.Generate.generate ~options
         (Mclh_benchgen.Spec.scaled scale (Mclh_benchgen.Spec.find bench)))
        .Mclh_benchgen.Generate.design)

(* the same design with its cells renumbered by a permutation drawn from
   [seed]: identical geometry and netlist, so the same LCP up to the
   order of its variables. The generator already shuffles cell ids, so
   the relabeled design is as cache-unfriendly as the original. *)
let relabel seed (d : Design.t) =
  let n = Design.num_cells d in
  let rng = Mclh_benchgen.Rng.create seed in
  let perm = Array.init n Fun.id in
  Mclh_benchgen.Rng.shuffle rng perm;
  let inv = Array.make n 0 in
  Array.iteri (fun j i -> inv.(i) <- j) perm;
  let cells =
    Array.mapi
      (fun j i ->
        let c = d.Design.cells.(i) in
        Cell.make ~id:j ~name:c.Cell.name ~width:c.Cell.width ~height:c.Cell.height
          ?bottom_rail:c.Cell.bottom_rail ?region:c.Cell.region ())
      perm
  in
  let pick a = Array.map (fun i -> a.(i)) perm in
  let g = d.Design.global in
  let nets =
    let b =
      Netlist.Builder.create ~num_cells:n
        ~expected_nets:(Netlist.num_nets d.Design.nets)
    in
    Netlist.iter d.Design.nets (fun _ net ->
        Netlist.Builder.add_net b
          (Array.map (fun p -> { p with Netlist.cell = inv.(p.Netlist.cell) }) net));
    Netlist.Builder.build b
  in
  Design.make ~blockages:d.Design.blockages ~regions:d.Design.regions
    ~name:d.Design.name ~chip:d.Design.chip ~cells
    ~global:(Placement.make ~xs:(pick g.Placement.xs) ~ys:(pick g.Placement.ys))
    ~nets ()

(* [Flow.run] stage by stage, each public call in its own span: the same
   calls in the same order with the same config, so the placement must
   be bit-identical to [Flow.run]'s. [Decompose.analyze] is called once
   more than the flow does ([Solver.solve] runs it internally) to read
   the partition; its span shows what that costs. *)
let compose_flow (design : Design.t) =
  let config = Config.default in
  let assignment =
    Span.with_ "row_assign.assign" (fun () -> Row_assign.assign design)
  in
  let model =
    Span.with_ "model.build" (fun () ->
        Model.build ~num_domains:config.Config.num_domains design assignment)
  in
  let deco = Span.with_ "decompose.analyze" (fun () -> Decompose.analyze model) in
  let solver = Span.with_ "solver.solve" (fun () -> Solver.solve ~config model) in
  let relaxed =
    Span.with_ "model.placement_of" (fun () ->
        Model.placement_of model solver.Solver.x)
  in
  let alloc =
    Span.with_ "tetris_alloc.run" (fun () -> Tetris_alloc.run design relaxed)
  in
  Span.add "model.nvars" (float_of_int model.Model.nvars);
  Span.add "decompose.components" (float_of_int (Decompose.num_components deco));
  Span.add "decompose.largest_dim" (float_of_int (Decompose.largest_dim deco));
  Span.add "solver.iterations_total" (float_of_int solver.Solver.iterations_total);
  Span.add "solver.fallbacks" (float_of_int solver.Solver.backends.Solver.fallbacks);
  Span.add "solver.converged" (if solver.Solver.converged then 1.0 else 0.0);
  Span.add "tetris_alloc.illegal_before"
    (float_of_int alloc.Tetris_alloc.illegal_before);
  Span.add "tetris_alloc.relocated" (float_of_int alloc.Tetris_alloc.relocated);
  alloc

(* every end-to-end metric, in report order, with its unit *)
let e2e_metrics =
  [ ("setup_s", "s"); ("op_p50_ms", "ms");
    ("hpwl", "sites"); ("displacement", "sites"); ("peak_rss_mb", "MB");
    ("ok_ratio", "ratio") ]

(* the end-to-end metrics whose tracing overhead a traced run reports,
   as traced / untraced, under the per-layer name on the left. hpwl,
   displacement and ok_ratio describe the output, not its cost. *)
let overhead_metrics =
  List.map
    (fun k -> ("trace.overhead." ^ k, k))
    [ "setup_s"; "op_p50_ms"; "peak_rss_mb" ]

(* A run with [--trace 1]: the untraced measurement, then the traced one.
   End-to-end metrics come from the untraced half; the per-layer metrics
   from the traced half, plus the tracing overhead. [same] compares the
   two halves' outputs, which must be bit-identical where the workload
   is deterministic. *)
let traced_pair ~trace ~same measure =
  let plain, reference = measure ~traced:false in
  if not trace then plain
  else begin
    let traced, composed = measure ~traced:true in
    let overhead =
      List.map
        (fun (name, k) -> (name, List.assoc k traced.e2e /. List.assoc k plain.e2e))
        overhead_metrics
    in
    { attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      correct = plain.correct && traced.correct && same reference composed;
      e2e = plain.e2e;
      layers = traced.layers @ overhead;
      notes = plain.notes }
  end

(* every per-layer metric, in report order, with its unit; a workload
   reports those of the layers it runs *)
let layer_metrics =
  [ ("benchgen.generate_s", "s");
    ("gp.place_s", "s"); ("gp.rounds", "count"); ("gp.cg_iterations", "count");
    ("gp.density_s", "s"); ("gp.final_overflow", "ratio");
    ("row_assign.assign_s", "s"); ("model.build_s", "s"); ("model.nvars", "count");
    ("decompose.analyze_s", "s"); ("decompose.components", "count");
    ("decompose.largest_dim", "count");
    ("solver.solve_s", "s"); ("solver.iterations_total", "count");
    ("solver.ms_per_iter", "ms"); ("solver.fallbacks", "count");
    ("solver.converged", "ratio");
    ("tetris_alloc.run_s", "s"); ("tetris_alloc.illegal_before", "count");
    ("tetris_alloc.relocated", "count");
    ("refine.run_s", "s"); ("refine.hpwl_gain", "ratio");
    ("incr.apply_p50_ms", "ms"); ("incr.cache_hit_ratio", "ratio");
    ("incr.dirty_shard_ratio", "ratio"); ("incr.solve_iterations", "count");
    ("serve.overhead_p50_ms", "ms"); ("serve.query_p50_ms", "ms");
    ("serve.coalesced", "count"); ("serve.busy", "count");
    ("serve.gen_lag_ms", "ms"); ("serve.edit_p99_ms", "ms");
    ("trace.leaf_coverage", "ratio") ]

(* per-layer counts of events a good run may not have at all; every
   other metric a workload reports must be positive *)
let may_be_zero =
  [ "solver.fallbacks"; "tetris_alloc.illegal_before"; "tetris_alloc.relocated";
    "serve.coalesced"; "serve.busy" ]

(* the per-layer values of the metrics whose names start with one of
   [exercised], from the recorded spans and counters: span times and
   counters averaged over [op_reps] timed operations (generation over
   [setup_reps] set-ups), leaf coverage over the [timed_root] spans,
   [extra] supplying the rest *)
let layers ~exercised ~setup_reps ~op_reps ~timed_root extra =
  let spans = Span.spans () in
  let self = Stats.self_times spans in
  let per n v = if n > 0 then v /. float_of_int n else 0.0 in
  let span_s name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let op_s name = per op_reps (span_s name) in
  let op_count name = per op_reps (Span.counter name) in
  let iterations = Span.counter "solver.iterations_total" in
  let derived =
    [ ("benchgen.generate_s", per setup_reps (span_s "benchgen.generate"));
      ("gp.place_s", op_s "gp.place");
      ("row_assign.assign_s", op_s "row_assign.assign");
      ("model.build_s", op_s "model.build");
      ("decompose.analyze_s", op_s "decompose.analyze");
      ("solver.solve_s", op_s "solver.solve");
      ( "solver.ms_per_iter",
        if iterations > 0.0 then 1000.0 *. span_s "solver.solve" /. iterations
        else 0.0 );
      ("tetris_alloc.run_s", op_s "tetris_alloc.run");
      ("refine.run_s", op_s "refine.run");
      ( "trace.leaf_coverage",
        Stats.leaf_coverage spans
          (List.filter (fun s -> s.Stats.name = timed_root) spans) ) ]
  in
  List.filter_map
    (fun (name, _) ->
      if not (List.exists (fun prefix -> String.starts_with ~prefix name) exercised)
      then None
      else
        Some
          ( name,
            match List.assoc_opt name extra with
            | Some v -> v
            | None -> (
              match List.assoc_opt name derived with
              | Some v -> v
              | None -> op_count name) ))
    layer_metrics
