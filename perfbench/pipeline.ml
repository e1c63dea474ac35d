(* Workload [pipeline]: netlist -> Gp.place -> Runner.run Mmsim ->
   Refine.run on superblue12 at scale 0.008 (about 10k cells). The only
   workload that runs GP and refinement, and the only cold legalize
   whose input is honestly 100% illegal. Larger pipelines stop GP at its
   round cap with 45-69% overflow and the solver then spends its whole
   iteration budget without converging, which would time a budget, not
   work; see NOTES.md. *)

open Mclh_circuit
open Mclh_core
open Common

let bench = "superblue12"
let scale = 0.008

(* set-ups before each timed pipeline: a set-up takes ~0.1 s against
   ~4 s for the pipeline, so a run makes ~20 of them, spread over its
   whole length *)
let setups_per_op = 3

(* The geometry is fixed (generator seed 1) and the run's seed renumbers
   the cells: across generator seeds the pipeline's time per design
   spreads by ~27% (quartile distance over median), mostly in MMSIM
   iterations, which no regression bound could hold. A renumbering still
   moves GP's floating-point summation order, and with it the MMSIM
   iteration count (1,509 to 1,987 over five seeds), so each run times
   three renumberings, drawn from [seed], [seed + 1000], [seed + 2000],
   in turn. *)
let design_seed = 1
let renumberings = 3
let renumbering_seeds seed = List.init renumberings (fun i -> seed + (1000 * i))

(* at least two rounds of the three: the shared machine the benchmark was
   tuned on switched between a fast and a slow state (~1.9x apart) that
   lasted tens of seconds, and a one-round run (~16 s) often fell wholly
   in one of them, spreading op_p50_ms 26% over ten seeds *)
let rounds = 2

type result = {
  gp : Placement.t;
  legal : Placement.t;
  unplaced : int list;
  refined : Placement.t;
}

let with_global (d : Design.t) gp = { d with Design.global = gp }

(* the production composition, as [mclh pipeline] runs it *)
let run_once skeleton =
  let gp, _ = Mclh_gp.Gp.place skeleton in
  let placed = with_global skeleton gp in
  let r = Runner.run Runner.Mmsim placed in
  let refined, _ = Mclh_refine.Refine.run placed r.Runner.placement in
  { gp; legal = r.Runner.placement; unplaced = r.Runner.unplaced; refined }

(* the same pipeline with every layer call in its own span and the
   legalizer composed stage by stage *)
let run_traced skeleton =
  let gp, stats = Span.with_ "gp.place" (fun () -> Mclh_gp.Gp.place skeleton) in
  let rounds = stats.Mclh_gp.Gp.rounds in
  Span.add "gp.rounds" (float_of_int (List.length rounds));
  List.iter
    (fun (r : Mclh_gp.Gp.round) ->
      Span.add "gp.cg_iterations" (float_of_int r.Mclh_gp.Gp.cg_iterations);
      Span.add "gp.density_s" r.Mclh_gp.Gp.density_seconds)
    rounds;
  Span.add "gp.final_overflow" stats.Mclh_gp.Gp.final_overflow;
  let placed = with_global skeleton gp in
  let alloc = compose_flow placed in
  let legal = alloc.Tetris_alloc.placement in
  let refined, rstats =
    Span.with_ "refine.run" (fun () -> Mclh_refine.Refine.run placed legal)
  in
  Span.add "refine.hpwl_gain" (Mclh_refine.Refine.improvement rstats);
  { gp; legal; unplaced = alloc.Tetris_alloc.unplaced; refined }

let ok skeleton r =
  r.unplaced = [] && Legality.is_legal (with_global skeleton r.gp) r.refined

let same a b =
  bit_identical a.gp b.gp && bit_identical a.legal b.legal
  && bit_identical a.refined b.refined

let measure ~seed ~seconds ~traced =
  Span.reset ~enabled:traced;
  let setup_times = ref [] in
  let setup () =
    timed_setup setup_times (fun () ->
        let base = generate ~bench ~scale design_seed in
        Array.of_list (List.map (fun s -> relabel s base) (renumbering_seeds seed)))
  in
  let op = if traced then run_traced else run_once in
  (* the generator is deterministic, so every set-up gives the same
     designs; the gates below read the last one *)
  let last = ref [||] in
  let next = ref 0 in
  let reps, peak_rss =
    repeat ~round:renumberings ~seconds ~min_reps:(rounds * renumberings)
      ~prepare:(fun () ->
        for _ = 1 to setups_per_op do
          last := setup ()
        done;
        let k = !next mod renumberings in
        incr next;
        (k, !last.(k)))
      (fun (k, skeleton) -> (k, Span.with_ "op" (fun () -> op skeleton)))
  in
  let skeletons = !last in
  (* the first result of each renumbering; a later rep of the same one
     must reproduce it bit for bit *)
  let firsts = Array.init renumberings (fun k -> List.assoc k (List.map fst reps)) in
  let failed =
    List.length (List.filter (fun ((k, r), _) -> not (ok skeletons.(k) r)) reps)
  in
  let times_ms = List.map (fun (_, s) -> 1000.0 *. s) reps in
  (* each renumbering's median time, averaged over the renumberings:
     every run weighs its inputs equally, however many rounds fit *)
  let op_ms =
    let median_of k =
      Stats.median
        (List.filter_map
           (fun ((k', _), s) -> if k' = k then Some (1000.0 *. s) else None)
           reps)
    in
    List.fold_left (fun acc k -> acc +. median_of k) 0.0 (List.init renumberings Fun.id)
    /. float_of_int renumberings
  in
  let sum f = Array.fold_left ( +. ) 0.0 (Array.map2 f skeletons firsts) in
  let e2e =
    [ ("setup_s", Stats.median !setup_times);
      ("op_p50_ms", op_ms);
      ("hpwl", sum (fun d r -> hpwl d r.refined));
      ("displacement", sum (fun d r -> displacement d ~before:r.gp r.refined));
      ("peak_rss_mb", peak_rss);
      ("ok_ratio", 1.0 -. (float_of_int failed /. float_of_int (List.length reps))) ]
  in
  let layers =
    if traced then
      Common.layers
        ~exercised:
          [ "benchgen."; "gp."; "row_assign."; "model."; "decompose."; "solver.";
            "tetris_alloc."; "refine."; "trace." ]
        ~setup_reps:(List.length !setup_times) ~op_reps:(List.length reps)
        ~timed_root:"op" []
    else []
  in
  ( { attempted = List.length reps;
      failed;
      correct = failed = 0 && List.for_all (fun ((k, r), _) -> same firsts.(k) r) reps;
      e2e;
      layers;
      notes =
        [ ("design", Mclh_report.Json.String bench);
          ("scale", Mclh_report.Json.Float scale);
          ("design_seed", Mclh_report.Json.Int design_seed);
          ( "renumbering_seeds",
            Mclh_report.Json.List
              (List.map (fun s -> Mclh_report.Json.Int s) (renumbering_seeds seed)) );
          ("op_ms", Mclh_report.Json.List (List.map (fun t -> Mclh_report.Json.Float t) times_ms));
          ("setup_times_s", floats_json (List.rev !setup_times));
          ("cells", Mclh_report.Json.Int (Design.num_cells skeletons.(0))) ] },
    firsts )

let run ~seed ~seconds ~trace =
  traced_pair ~trace ~same:(Array.for_all2 same) (fun ~traced ->
      measure ~seed ~seconds ~traced)
