(* The observability layer: ring-buffer traces, the JSON emitter/parser,
   the versioned run report (golden-tested byte-for-byte), and the metrics
   threading through the legalization stack — including the failure paths
   the instrumentation exists to expose (non-convergence, Tetris repair,
   the area-ordered repack fallback). *)

open Mclh_circuit
open Mclh_core
module Obs = Mclh_obs.Obs
module Trace = Mclh_obs.Trace
module Run_report = Mclh_obs.Run_report
module Json = Mclh_report.Json

(* ---------- Trace ---------- *)

let test_trace_basic () =
  let tr = Trace.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Trace.capacity tr);
  Alcotest.(check int) "empty length" 0 (Trace.length tr);
  Alcotest.(check (option (float 0.0))) "empty last" None (Trace.last tr);
  Trace.record tr 1.0;
  Trace.record tr 2.0;
  Alcotest.(check int) "length" 2 (Trace.length tr);
  Alcotest.(check (array (float 0.0))) "partial" [| 1.0; 2.0 |] (Trace.to_array tr);
  Alcotest.(check (option (float 0.0))) "last" (Some 2.0) (Trace.last tr)

let test_trace_wraps () =
  let tr = Trace.create ~capacity:3 in
  List.iter (Trace.record tr) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "recorded counts all" 5 (Trace.recorded tr);
  Alcotest.(check int) "length capped" 3 (Trace.length tr);
  (* the tail survives, oldest first *)
  Alcotest.(check (array (float 0.0))) "tail" [| 3.0; 4.0; 5.0 |] (Trace.to_array tr);
  Alcotest.(check (option (float 0.0))) "last" (Some 5.0) (Trace.last tr)

let test_trace_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0))

let test_trace_record_allocation_free () =
  let tr = Trace.create ~capacity:64 in
  (* record a pre-boxed sample: boxing a fresh float in the loop would
     charge the test 2 words/call that record itself never allocates *)
  let sample = Float.of_string "1.5" in
  let run n =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Trace.record tr sample
    done;
    Gc.minor_words () -. before
  in
  ignore (run 10) (* warm up *);
  let lo = run 100 and hi = run 1100 in
  Alcotest.(check (float 0.0)) "0 words per record" 0.0 ((hi -. lo) /. 1000.0)

(* ---------- Json ---------- *)

let test_json_emit_golden () =
  let v =
    Json.Obj
      [ ("a", Json.Int 1);
        ("b", Json.List [ Json.Float 2.5; Json.Null; Json.Bool true ]);
        ("c", Json.String "x\"y\n") ]
  in
  Alcotest.(check string) "emitted"
    "{\n  \"a\": 1,\n  \"b\": [\n    2.5,\n    null,\n    true\n  ],\n  \"c\": \"x\\\"y\\n\"\n}\n"
    (Json.to_string v);
  Alcotest.(check string) "compact"
    "{\"a\":1,\"b\":[2.5,null,true],\"c\":\"x\\\"y\\n\"}"
    (Json.to_string ~indent:false v)

let test_json_nonfinite_floats () =
  let v = Json.List [ Json.Float Float.nan; Json.Float Float.infinity ] in
  let s = Json.to_string ~indent:false v in
  Alcotest.(check string) "nan and inf emit as null" "[null,null]" s;
  (* the emitted document always parses *)
  match Json.of_string s with
  | Ok (Json.List [ Json.Null; Json.Null ]) -> ()
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.fail e

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("ints", Json.List [ Json.Int 0; Json.Int (-42); Json.Int 1000000 ]);
        ("floats", Json.List [ Json.Float 0.25; Json.Float (-1.5e-3) ]);
        ("unicode", Json.String "caf\xc3\xa9");
        ("nested", Json.Obj [ ("empty_list", Json.List []);
                              ("empty_obj", Json.Obj []) ]) ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip equal" true (v = v')
  | Error e -> Alcotest.fail e);
  match Json.of_string (Json.to_string ~indent:false v) with
  | Ok v' -> Alcotest.(check bool) "compact roundtrip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_parse_forms () =
  let ok s expected =
    match Json.of_string s with
    | Ok v -> Alcotest.(check bool) (Printf.sprintf "parse %S" s) true (v = expected)
    | Error e -> Alcotest.fail (Printf.sprintf "%S: %s" s e)
  in
  ok "3" (Json.Int 3);
  ok "3.5" (Json.Float 3.5);
  ok "1e3" (Json.Float 1000.0);
  ok "-0.5" (Json.Float (-0.5));
  ok "\"\\u0041\\u00e9\"" (Json.String "A\xc3\xa9");
  ok "  [ ]  " (Json.List []);
  ok "{\"k\": [1, {\"n\": null}]}"
    (Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Obj [ ("n", Json.Null) ] ]) ])

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "1 2";
  bad "nul";
  bad "\"unterminated"

let test_json_member () =
  let v = Json.Obj [ ("a", Json.Int 1) ] in
  Alcotest.(check bool) "present" true (Json.member "a" v = Some (Json.Int 1));
  Alcotest.(check bool) "absent" true (Json.member "b" v = None);
  Alcotest.(check bool) "non-object" true (Json.member "a" (Json.Int 1) = None)

(* ---------- Obs recorder ---------- *)

let test_obs_none_is_noop () =
  Obs.incr None "x";
  Obs.add None "x" 3;
  Obs.gauge None "x" 1.0;
  Obs.record_span None "x" 1.0;
  Alcotest.(check int) "span None runs f" 7 (Obs.span None "x" (fun () -> 7));
  Alcotest.(check bool) "no trace when off" true (Obs.new_trace None "x" ~capacity:4 = None)

let test_obs_recording () =
  let t = Obs.create () in
  let obs = Some t in
  Obs.incr obs "b/count";
  Obs.incr obs "b/count";
  Obs.add obs "a/count" 40;
  Obs.gauge obs "g" 1.0;
  Obs.gauge obs "g" 2.5;
  Obs.record_span obs "s" 0.125;
  Obs.record_span obs "s" 0.125;
  Alcotest.(check (list (pair string int))) "counters sorted"
    [ ("a/count", 40); ("b/count", 2) ]
    (Obs.counters t);
  Alcotest.(check int) "counter_value" 2 (Obs.counter_value t "b/count");
  Alcotest.(check int) "counter_value default" 0 (Obs.counter_value t "zzz");
  Alcotest.(check (list (pair string (float 0.0)))) "gauge last write wins"
    [ ("g", 2.5) ] (Obs.gauges t);
  Alcotest.(check (list (pair string (float 0.0)))) "spans accumulate"
    [ ("s", 0.25) ] (Obs.spans t);
  Alcotest.(check int) "span timer records" 5 (Obs.span obs "timed" (fun () -> 5));
  Alcotest.(check bool) "timed span present" true
    (List.mem_assoc "timed" (Obs.spans t));
  match Obs.new_trace obs "tr" ~capacity:8 with
  | None -> Alcotest.fail "trace expected when metrics on"
  | Some tr ->
    Trace.record tr 1.0;
    Alcotest.(check bool) "find_trace" true (Obs.find_trace t "tr" = Some tr)

(* ---------- Run report ---------- *)

let golden_recorder () =
  let t = Obs.create () in
  let obs = Some t in
  Obs.incr obs "alpha/count";
  Obs.incr obs "alpha/count";
  Obs.add obs "beta/count" 40;
  Obs.gauge obs "gamma" 2.5;
  Obs.record_span obs "stage/a" 0.125;
  Obs.record_span obs "stage/a" 0.125;
  (match Obs.new_trace obs "conv" ~capacity:4 with
  | Some tr -> List.iter (Trace.record tr) [ 1.0; 0.5; Float.nan ]
  | None -> assert false);
  Obs.sub obs "child" (Json.Obj [ ("k", Json.Int 1) ]);
  t

let golden_expected =
  "{\n\
  \  \"schema\": \"mclh-run-report\",\n\
  \  \"version\": 1,\n\
  \  \"meta\": {\n\
  \    \"design\": \"golden\"\n\
  \  },\n\
  \  \"counters\": {\n\
  \    \"alpha/count\": 2,\n\
  \    \"beta/count\": 40\n\
  \  },\n\
  \  \"gauges\": {\n\
  \    \"gamma\": 2.5\n\
  \  },\n\
  \  \"spans_s\": {\n\
  \    \"stage/a\": 0.25\n\
  \  },\n\
  \  \"traces\": {\n\
  \    \"conv\": {\n\
  \      \"capacity\": 4,\n\
  \      \"recorded\": 3,\n\
  \      \"values\": [\n\
  \        1.0,\n\
  \        0.5,\n\
  \        null\n\
  \      ]\n\
  \    }\n\
  \  },\n\
  \  \"sub_reports\": {\n\
  \    \"child\": {\n\
  \      \"k\": 1\n\
  \    }\n\
  \  }\n\
   }\n"

let test_report_golden () =
  let json =
    Run_report.to_json ~meta:[ ("design", Json.String "golden") ]
      (golden_recorder ())
  in
  Alcotest.(check string) "byte-identical report" golden_expected
    (Json.to_string json);
  (* two identical recordings serialize identically *)
  let json2 =
    Run_report.to_json ~meta:[ ("design", Json.String "golden") ]
      (golden_recorder ())
  in
  Alcotest.(check string) "deterministic" (Json.to_string json)
    (Json.to_string json2)

let test_report_roundtrip_and_validate () =
  let json = Run_report.to_json (golden_recorder ()) in
  (match Run_report.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Json.of_string (Json.to_string json) with
  | Ok parsed -> (
    match Run_report.validate parsed with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("parsed report rejected: " ^ e))
  | Error e -> Alcotest.fail ("emitted report does not parse: " ^ e));
  (match Run_report.validate (Json.Obj [ ("schema", Json.String "other") ]) with
  | Ok () -> Alcotest.fail "wrong schema accepted"
  | Error _ -> ());
  match Run_report.validate (Json.Int 3) with
  | Ok () -> Alcotest.fail "non-object accepted"
  | Error _ -> ()

(* ---------- threading through the legalization stack ---------- *)

let cell ?rail ?name ~id ~w ~h () =
  Cell.make ~id ?name ~width:w ~height:h ?bottom_rail:rail ()

let design ?blockages ?name:(dname = "obs") ~chip ~cells ~xs ~ys () =
  Design.make ?blockages ~name:dname ~chip ~cells
    ~global:(Placement.make ~xs ~ys)
    ~nets:(Netlist.empty ~num_cells:(Array.length cells))
    ()

let mixed_design () =
  (* a handful of overlapping mixed-height cells: enough work for every
     stage to record something *)
  let chip = Chip.make ~num_rows:4 ~num_sites:24 () in
  let cells =
    [| cell ~id:0 ~w:4 ~h:1 (); cell ~id:1 ~w:4 ~h:1 ();
       cell ~rail:Rail.Vss ~id:2 ~w:3 ~h:2 (); cell ~id:3 ~w:5 ~h:1 ();
       cell ~rail:Rail.Vss ~id:4 ~w:3 ~h:2 (); cell ~id:5 ~w:4 ~h:1 () |]
  in
  let xs = [| 1.2; 3.8; 6.1; 6.4; 8.9; 12.2 |] in
  let ys = [| 0.4; 0.6; 0.2; 1.5; 1.7; 2.4 |] in
  design ~chip ~cells ~xs ~ys ()

(* the per-shard traces of a multi-component solve, by name *)
let component_traces t (solver : Solver.result) =
  List.init solver.Solver.components (fun i ->
      let name = Printf.sprintf "solver/comp%03d" i in
      match Obs.find_trace t (name ^ "/delta_inf") with
      | None -> Alcotest.failf "%s convergence trace missing" name
      | Some tr -> (name, tr))

let test_flow_records_metrics () =
  let d = mixed_design () in
  let t = Obs.create () in
  let config = { Config.default with num_domains = 1 } in
  let result = Flow.run ~config ~obs:t d in
  Alcotest.(check bool) "legal" true (Legality.is_legal d result.Flow.legal);
  Alcotest.(check int) "solver/iterations counter"
    result.Flow.solver.Solver.iterations
    (Obs.counter_value t "solver/iterations");
  List.iter
    (fun span ->
      Alcotest.(check bool) (span ^ " recorded") true
        (List.mem_assoc span (Obs.spans t)))
    [ "flow/assign"; "flow/model"; "flow/solve"; "flow/alloc"; "flow/total" ];
  (* the fixture is two components (rows 0-1 and row 2, each with a
     double-height cell), so each shard records its own trace *)
  let solver = result.Flow.solver in
  Alcotest.(check int) "components" 2 solver.Solver.components;
  let traces = component_traces t solver in
  List.iter
    (fun (name, tr) ->
      Alcotest.(check int) (name ^ " records every iteration")
        (Obs.counter_value t (name ^ "/iterations"))
        (Trace.recorded tr))
    traces;
  Alcotest.(check int) "slowest shard's iterations" solver.Solver.iterations
    (List.fold_left (fun acc (_, tr) -> max acc (Trace.recorded tr)) 0 traces);
  (* the final samples are the shards' final residuals *)
  Alcotest.(check (float 1e-12)) "largest last sample is delta_inf"
    solver.Solver.delta_inf
    (List.fold_left
       (fun acc (_, tr) -> Float.max acc (Option.get (Trace.last tr)))
       0.0 traces)

let test_metrics_do_not_change_results () =
  let d = mixed_design () in
  let config = { Config.default with num_domains = 1 } in
  let plain = Flow.run ~config d in
  let observed = Flow.run ~config ~obs:(Obs.create ()) d in
  Alcotest.(check (array (float 0.0))) "xs identical"
    plain.Flow.legal.Placement.xs observed.Flow.legal.Placement.xs;
  Alcotest.(check (array (float 0.0))) "ys identical"
    plain.Flow.legal.Placement.ys observed.Flow.legal.Placement.ys;
  Alcotest.(check int) "iterations identical"
    plain.Flow.solver.Solver.iterations observed.Flow.solver.Solver.iterations

let test_tiny_max_iter_repair_path () =
  (* starve MMSIM so the flow warning path and the Tetris repair run end to
     end: tiny iteration budget, tolerance far below reachable *)
  let d = mixed_design () in
  let t = Obs.create () in
  let max_iter = 2 in
  let config =
    { Config.default with max_iter; eps = 1e-12; num_domains = 1 }
  in
  let result = Flow.run ~config ~obs:t d in
  let solver = result.Flow.solver in
  Alcotest.(check bool) "solver hit max_iter" false solver.Solver.converged;
  (* each of the two shards makes two attempts, the accelerated one and
     its theta/2 retry, each spending the whole budget *)
  List.iter
    (fun (name, tr) ->
      Alcotest.(check int) (name ^ " records both attempts") (2 * max_iter)
        (Trace.recorded tr))
    (component_traces t solver);
  Alcotest.(check int) "one fallback per shard" 2
    solver.Solver.backends.Solver.fallbacks;
  Alcotest.(check int) "solver/fallbacks" 2
    (Obs.counter_value t "solver/fallbacks");
  Alcotest.(check int) "two attempts' iterations per shard" (2 * 2 * max_iter)
    solver.Solver.iterations_total;
  Alcotest.(check int) "flow/nonconverged" 1
    (Obs.counter_value t "flow/nonconverged");
  Alcotest.(check int) "solver/nonconverged" 1
    (Obs.counter_value t "solver/nonconverged");
  Alcotest.(check bool) "tetris repaired to a legal placement" true
    (Legality.is_legal d result.Flow.legal)

let test_repack_fallback () =
  (* near-capacity: singles grab their spots first and fragment the free
     space (columns {0, 3} on both rows), so the double-height cell has no
     2-wide dual-row span and the area-ordered repack must take over *)
  let chip = Chip.make ~num_rows:2 ~num_sites:4 () in
  let cells =
    [| cell ~rail:Rail.Vss ~id:0 ~w:2 ~h:2 ();
       cell ~id:1 ~w:2 ~h:1 (); cell ~id:2 ~w:2 ~h:1 () |]
  in
  let xs = [| 2.0; 1.0; 1.0 |] and ys = [| 0.0; 0.0; 1.0 |] in
  let d = design ~chip ~cells ~xs ~ys () in
  let t = Obs.create () in
  let result = Tetris_alloc.run ~obs:t d d.Design.global in
  Alcotest.(check bool) "repack fallback taken" true
    result.Tetris_alloc.repack_fallback;
  Alcotest.(check int) "tetris/repack_fallback" 1
    (Obs.counter_value t "tetris/repack_fallback");
  Alcotest.(check bool) "legal after repack" true
    (Legality.is_legal d result.Tetris_alloc.placement);
  (* tallest-first: the double-height cell keeps its snapped position *)
  Alcotest.(check (float 0.0)) "double at x=2" 2.0
    result.Tetris_alloc.placement.Placement.xs.(0)

let test_clamp_x0 () =
  let c = cell ~id:0 ~w:4 ~h:1 () in
  Alcotest.(check int) "right overflow" 6 (Tetris_alloc.clamp_x0 ~num_sites:10 c 20);
  Alcotest.(check int) "left overflow" 0 (Tetris_alloc.clamp_x0 ~num_sites:10 c (-3));
  Alcotest.(check int) "interior" 5 (Tetris_alloc.clamp_x0 ~num_sites:10 c 5);
  let wide = cell ~id:1 ~w:12 ~h:1 () in
  (* wider than the chip: floors at 0 instead of going negative *)
  Alcotest.(check int) "wider than chip" 0 (Tetris_alloc.clamp_x0 ~num_sites:10 wide 3)

let test_fenced_runner_report () =
  let inst =
    Mclh_benchgen.Generate.generate
      ~options:{ Mclh_benchgen.Generate.default_options with fence_count = 2 }
      (Mclh_benchgen.Spec.scaled 0.005 (Mclh_benchgen.Spec.find "fft_2"))
  in
  let d = inst.Mclh_benchgen.Generate.design in
  let config = { Config.default with num_domains = 1 } in
  let t = Obs.create () in
  let r = Runner.run ~config ~obs:t Runner.Mmsim d in
  Alcotest.(check bool) "legal" true r.Runner.legal;
  match r.Runner.fence with
  | None -> Alcotest.fail "fenced run must carry territory stats"
  | Some stats ->
    Alcotest.(check bool) "several territories" true (stats.Fence.territories >= 2);
    Alcotest.(check int) "one stats entry per territory" stats.Fence.territories
      (List.length stats.Fence.per_territory);
    (* the aggregates the CLI prints *)
    Alcotest.(check int) "max iterations"
      (List.fold_left
         (fun acc (ts : Fence.territory_stats) -> max acc ts.Fence.iterations)
         0 stats.Fence.per_territory)
      (Fence.max_iterations stats);
    Alcotest.(check bool) "aggregate converged" true (Fence.all_converged stats);
    Alcotest.(check bool) "mismatch bounded" true
      (Fence.max_mismatch stats >= 0.0 && Fence.max_delta_inf stats >= 0.0);
    Alcotest.(check int) "illegal total"
      (List.fold_left
         (fun acc (ts : Fence.territory_stats) -> acc + ts.Fence.illegal_before)
         0 stats.Fence.per_territory)
      (Fence.total_illegal stats);
    Alcotest.(check int) "territory counter" stats.Fence.territories
      (Obs.counter_value t "fence/territories");
    (* one sub-report per territory, each a valid run report *)
    let subs = Obs.subs t in
    Alcotest.(check int) "territory sub-reports" stats.Fence.territories
      (List.length subs);
    List.iter
      (fun (name, json) ->
        Alcotest.(check bool) "territory/ prefix" true
          (String.length name > 10 && String.sub name 0 10 = "territory/");
        match Run_report.validate json with
        | Ok () -> ()
        | Error e -> Alcotest.fail (name ^ ": " ^ e))
      subs

(* ---------- CLI --metrics-out ---------- *)

let test_cli_metrics_out () =
  if not (Cli.available ()) then Alcotest.skip ()
  else begin
    let out = Filename.temp_file "mclh_metrics" ".json" in
    Alcotest.(check int) "cli exit" 0
      (Cli.run [ "run"; "-b"; "fft_2"; "-s"; "0.005"; "--metrics-out"; out ]);
    let json = Cli.read_json out in
    Sys.remove out;
    (match Run_report.validate json with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Alcotest.(check bool) "meta names the design" true
      (Cli.member [ "meta"; "design" ] json = Json.String "fft_2");
    Alcotest.(check bool) "stage spans present" true
      (List.mem "flow/total" (Cli.keys [ "spans_s" ] json));
    Alcotest.(check bool) "solver counters present" true
      (List.exists (Cli.has_prefix "solver/") (Cli.keys [ "counters" ] json));
    Alcotest.(check bool) "convergence traces recorded" true
      (Cli.keys [ "traces" ] json <> []);
    (* peak RSS is read from procfs, and absent without it *)
    if Sys.file_exists "/proc/self/status" then
      Alcotest.(check bool) "peak RSS recorded" true
        (Cli.float_at [ "gauges"; "mem/peak_rss_kb" ] json > 0.0)
  end

let () =
  Alcotest.run "obs"
    [ ( "trace",
        [ Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "wraps" `Quick test_trace_wraps;
          Alcotest.test_case "bad capacity" `Quick test_trace_bad_capacity;
          Alcotest.test_case "allocation-free record" `Quick
            test_trace_record_allocation_free ] );
      ( "json",
        [ Alcotest.test_case "emit golden" `Quick test_json_emit_golden;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse forms" `Quick test_json_parse_forms;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "member" `Quick test_json_member ] );
      ( "obs",
        [ Alcotest.test_case "none is noop" `Quick test_obs_none_is_noop;
          Alcotest.test_case "recording" `Quick test_obs_recording ] );
      ( "report",
        [ Alcotest.test_case "golden" `Quick test_report_golden;
          Alcotest.test_case "roundtrip+validate" `Quick
            test_report_roundtrip_and_validate ] );
      ( "stack",
        [ Alcotest.test_case "flow records metrics" `Quick
            test_flow_records_metrics;
          Alcotest.test_case "metrics do not change results" `Quick
            test_metrics_do_not_change_results;
          Alcotest.test_case "tiny max_iter repair path" `Quick
            test_tiny_max_iter_repair_path;
          Alcotest.test_case "repack fallback" `Quick test_repack_fallback;
          Alcotest.test_case "clamp_x0" `Quick test_clamp_x0;
          Alcotest.test_case "fenced runner report" `Quick
            test_fenced_runner_report ] );
      ( "cli",
        [ Alcotest.test_case "--metrics-out" `Quick test_cli_metrics_out ] ) ]
