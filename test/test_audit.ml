(* Tests for the exact small-window auditor and the graceful-failure
   paths it backs: exact-vs-brute-force agreement, typed infeasibility,
   witness feasibility on legalized placements, Sec 5.3 parity (sorted
   single-height targets certify at zero gap), and the scenario pack
   driving every legalizer into its repair path without a crash. *)

open Mclh_circuit
open Mclh_benchgen
open Mclh_core
module Exact = Mclh_audit.Exact
module Window = Mclh_audit.Window
module Audit = Mclh_audit.Audit

(* ---------- exact vs brute force on tiny windows ---------- *)

(* every integer placement of every cell, checked pairwise: the ground
   truth the branch-and-bound must match *)
let brute_force ~row_height ~free (cells : Exact.cell array) =
  let n = Array.length cells in
  let candidates i =
    let c = cells.(i) in
    Array.to_list c.Exact.rows
    |> List.concat_map (fun r ->
           let segs =
             (* a multi-row cell needs the intersection over its rows *)
             List.init c.Exact.height (fun dr -> free (r + dr))
             |> List.fold_left
                  (fun acc segs ->
                    List.concat_map
                      (fun (a0, a1) ->
                        List.filter_map
                          (fun (b0, b1) ->
                            let lo = max a0 b0 and hi = min a1 b1 in
                            if hi > lo then Some (lo, hi) else None)
                          segs)
                      acc)
                  [ (min_int / 2, max_int / 2) ]
           in
           List.concat_map
             (fun (lo, hi) ->
               List.init
                 (max 0 (hi - lo - c.Exact.width + 1))
                 (fun k -> (r, lo + k)))
             segs)
  in
  let best = ref None in
  let rec go i placed acc =
    match !best with
    | Some b when acc >= b -> ()
    | _ ->
      if i = n then best := Some acc
      else
        List.iter
          (fun (r, x) ->
            let c = cells.(i) in
            let ok =
              List.for_all
                (fun (j, rj, xj) ->
                  let cj = cells.(j) in
                  not
                    (r < rj + cj.Exact.height
                    && rj < r + c.Exact.height
                    && x < xj + cj.Exact.width
                    && xj < x + c.Exact.width))
                placed
            in
            if ok then begin
              let dx = float_of_int x -. c.Exact.target_x in
              let dy =
                row_height *. (float_of_int r -. c.Exact.target_y)
              in
              go (i + 1) ((i, r, x) :: placed) (acc +. (dx *. dx) +. (dy *. dy))
            end)
          (candidates i)
  in
  go 0 [] 0.0;
  !best

let check_matches_brute ~row_height ~free cells =
  let brute = brute_force ~row_height ~free cells in
  match (Exact.solve ~row_height ~free cells, brute) with
  | Exact.Infeasible, None -> true
  | Exact.Optimal s, Some b -> Float.abs (s.Exact.cost -. b) <= 1e-6
  | Exact.Optimal _, None -> false
  | Exact.Infeasible, Some _ -> false
  | (Exact.Feasible _ | Exact.Budget_exceeded _), _ -> false

let qc_exact_matches_brute =
  QCheck.Test.make ~count:200 ~name:"exact == brute force on tiny windows"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let state = ref (max 1 seed) in
      let next range =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod range
      in
      let num_rows = 1 + next 2 in
      let sites = 8 + next 6 in
      (* occasionally notch a hole out of a row's free span *)
      let notch = Array.init num_rows (fun _ -> next 3 = 0) in
      let free r =
        if notch.(r) then [ (0, sites / 2); ((sites / 2) + 1, sites) ]
        else [ (0, sites) ]
      in
      let n = 1 + next 3 in
      let cells =
        Array.init n (fun id ->
            let height =
              if num_rows >= 2 && next 4 = 0 then 2 else 1
            in
            let rows =
              Array.init (num_rows - height + 1) (fun r -> r)
            in
            { Exact.id;
              width = 1 + next 3;
              height;
              rows;
              target_x = float_of_int (next sites);
              target_y = float_of_int (next num_rows) })
      in
      check_matches_brute ~row_height:2.0 ~free cells)

(* ---------- pinned outcomes ---------- *)

let test_pinned_infeasible () =
  (* two width-6 cells in a 10-site row: provably no arrangement *)
  let cells =
    Array.init 2 (fun id ->
        { Exact.id; width = 6; height = 1; rows = [| 0 |];
          target_x = 0.0; target_y = 0.0 })
  in
  (match Exact.solve ~free:(fun _ -> [ (0, 10) ]) cells with
  | Exact.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible");
  (* empty free list: also infeasible, never an exception *)
  (match Exact.solve ~free:(fun _ -> []) cells with
  | Exact.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible on empty free list")

let test_budget_exhaustion_typed () =
  (* a contested window under a starvation budget must return a typed
     outcome, not raise *)
  let cells =
    Array.init 8 (fun id ->
        { Exact.id; width = 3; height = 1; rows = [| 0; 1 |];
          target_x = 10.0; target_y = 0.5 })
  in
  match Exact.solve ~max_nodes:1 ~free:(fun _ -> [ (0, 24) ]) cells with
  | Exact.Feasible _ | Exact.Budget_exceeded _ -> ()
  | Exact.Optimal _ -> Alcotest.fail "cannot prove optimality in 1 node"
  | Exact.Infeasible -> Alcotest.fail "the window is feasible"

let test_single_cell_snaps_to_target () =
  let cells =
    [| { Exact.id = 7; width = 2; height = 1; rows = [| 0 |];
         target_x = 5.3; target_y = 0.0 } |]
  in
  match Exact.solve ~free:(fun _ -> [ (0, 20) ]) cells with
  | Exact.Optimal s ->
    Alcotest.(check int) "x snaps to nearest site" 5 s.Exact.xs.(0);
    Alcotest.(check int) "row 0" 0 s.Exact.rows.(0)
  | _ -> Alcotest.fail "expected Optimal"

(* ---------- auditing legalized placements ---------- *)

let instance ?(options = Generate.default_options) name scale =
  Generate.generate ~options (Spec.scaled scale (Spec.find name))

let test_witness_windows_feasible () =
  (* windows of a *legal* placement can never be infeasible, and the exact
     optimum can never exceed the placed cost *)
  List.iter
    (fun name ->
      let inst = instance name 0.008 in
      let d = inst.Generate.design in
      let legal = Flow.legalize d in
      let s = Audit.run ~count:12 d legal in
      Alcotest.(check int) (name ^ ": no infeasible window") 0
        s.Audit.infeasible;
      Alcotest.(check bool) (name ^ ": sampled some windows") true
        (s.Audit.sampled > 0);
      List.iter
        (fun (w : Audit.window_report) ->
          match w.Audit.status with
          | Audit.Certified | Audit.Unproven _ | Audit.Budget_out -> ()
          | Audit.Window_infeasible ->
            Alcotest.fail (name ^ ": infeasible window on legal placement")
          | Audit.Gap g ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: gap %.6f >= 0" name g)
              true (g >= -1e-6))
        s.Audit.reports)
    [ "fft_2"; "pci_bridge32_b" ]

let test_sorted_single_height_certifies () =
  (* Sec 5.3 parity. With single-height cells in one row and *sorted*
     targets, the order-preserving optimum MMSIM computes is the global
     optimum (exchange argument), so every window must certify at zero
     gap. *)
  let chip = Chip.make ~num_rows:1 ~num_sites:60 () in
  let n = 10 in
  let state = ref 42 in
  let next range =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod range
  in
  let widths = Array.init n (fun _ -> 2 + next 3) in
  let cells =
    Array.init n (fun id -> Cell.make ~id ~width:widths.(id) ~height:1 ())
  in
  (* sorted, overlapping targets crowding the middle of the row *)
  let xs =
    Array.init n (fun i -> 18.0 +. (2.1 *. float_of_int i))
  in
  let d =
    Design.make ~name:"sorted-row" ~chip ~cells
      ~global:(Placement.make ~xs ~ys:(Array.make n 0.0))
      ~nets:(Netlist.empty ~num_cells:n) ()
  in
  let legal = Flow.legalize d in
  Alcotest.(check bool) "legal" true (Legality.is_legal d legal);
  let s = Audit.run ~count:8 ~max_cells:n d legal in
  Alcotest.(check bool) "sampled" true (s.Audit.sampled > 0);
  Alcotest.(check int) "all certified" s.Audit.sampled s.Audit.certified;
  Alcotest.(check (float 1e-6)) "zero max gap" 0.0 s.Audit.max_gap

(* ---------- scenario pack: typed failure everywhere ---------- *)

let test_legalizers_return_typed_errors () =
  let inst = Scenario.generate ~scale:0.5 Scenario.Oversub in
  let d = inst.Generate.design in
  let check_result name = function
    | Ok _ -> Alcotest.failf "%s: an over-subscribed chip cannot be legal" name
    | Error u ->
      Alcotest.(check bool) (name ^ ": names the victims") true
        (u.Unplaced.cells <> []);
      Alcotest.(check int)
        (name ^ ": partial placement covers every cell")
        (Design.num_cells d)
        (Array.length u.Unplaced.partial.Placement.xs)
  in
  check_result "tetris" (Tetris_legal.legalize d);
  check_result "greedy" (Greedy_cpy.legalize ~options:Greedy_cpy.default d);
  check_result "greedy-imp" (Greedy_cpy.legalize ~options:Greedy_cpy.improved d);
  (* abacus emits a fractional placement that the snap stage repairs, so
     over-capacity surfaces at the Runner level: either a typed error from
     abacus itself or unplaced cells after the snap *)
  (match Abacus_mr.legalize d with
  | Error u ->
    Alcotest.(check bool) "abacus: names the victims" true
      (u.Unplaced.cells <> [])
  | Ok _ ->
    let r = Runner.run Runner.Abacus_multirow d in
    Alcotest.(check bool) "abacus runner reports unplaced" true
      (r.Runner.unplaced <> []);
    Alcotest.(check bool) "abacus partial => illegal" true
      (not r.Runner.legal));
  (* the MMSIM flow parks the victims and reports them, never raises *)
  let r = Flow.run d in
  Alcotest.(check bool) "flow reports unplaced" true
    (r.Flow.alloc.Tetris_alloc.unplaced <> [])

let test_fence_oversub_detected () =
  let inst = Scenario.generate ~scale:0.5 Scenario.Fence_oversub in
  let d = inst.Generate.design in
  Alcotest.(check bool) "has a region" true (Array.length d.Design.regions > 0);
  let pl, stats = Fence.legalize d in
  Alcotest.(check int) "placement covers every cell" (Design.num_cells d)
    (Array.length pl.Placement.xs);
  Alcotest.(check bool) "over-subscription detected" true
    (Fence.over_subscribed_territories stats <> []);
  Alcotest.(check bool) "members evicted" true (Fence.total_evicted stats > 0)

let test_all_scenarios_all_algorithms_no_crash () =
  List.iter
    (fun kind ->
      let inst = Scenario.generate ~scale:0.25 kind in
      let d = inst.Generate.design in
      List.iter
        (fun alg ->
          let r = Runner.run alg d in
          (* a partial placement must be flagged illegal, and the report
             must always carry positions for every cell *)
          if r.Runner.unplaced <> [] then
            Alcotest.(check bool)
              (Scenario.name kind ^ "/" ^ Runner.name alg ^ ": partial => illegal")
              true (not r.Runner.legal);
          Alcotest.(check int)
            (Scenario.name kind ^ "/" ^ Runner.name alg ^ ": full placement")
            (Design.num_cells d)
            (Array.length r.Runner.placement.Placement.xs))
        Runner.all)
    Scenario.all

let test_scenario_names_roundtrip () =
  List.iter
    (fun k ->
      match Scenario.of_name (Scenario.name k) with
      | Some k' when k' = k -> ()
      | _ -> Alcotest.failf "scenario name %s does not round-trip"
               (Scenario.name k))
    Scenario.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Scenario.of_name "no-such-scenario" = None)

(* ---------- CLI smoke: exit codes, not crashes ---------- *)

(* the fence-dense scenario legalizes, and its 16-window gap report is
   internally consistent *)
let check_fence_dense_audit () =
  let design = Filename.temp_file "mclh_fd" ".mclh" in
  let placed = Filename.temp_file "mclh_fd" ".pl.mclh" in
  let report = Filename.temp_file "mclh_fd" ".json" in
  Alcotest.(check int) "fence-dense gen" 0
    (Cli.run [ "gen"; "--scenario"; "fence-dense"; "-s"; "0.5"; "-o"; design ]);
  Alcotest.(check int) "fence-dense legalizes" 0
    (Cli.run [ "legalize"; "-i"; design; "-o"; placed ]);
  Alcotest.(check int) "fence-dense audits" 0
    (Cli.run
       [ "audit"; "-i"; design; "-p"; placed; "--windows"; "16";
         "--metrics-out"; report ]);
  let r = Cli.read_json report in
  List.iter Sys.remove [ design; placed; report ];
  (match Mclh_obs.Run_report.validate r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let counter name = Cli.int_at [ "counters"; "audit/" ^ name ] r in
  let windows = counter "windows" in
  Alcotest.(check bool) "windows sampled" true (windows > 0);
  Alcotest.(check int) "every window has one outcome" windows
    (counter "certified" + counter "gap" + counter "infeasible"
   + counter "budget");
  Alcotest.(check int) "no infeasible window" 0 (counter "infeasible");
  let sub = Cli.member [ "sub_reports"; "audit/windows" ] r in
  Alcotest.(check int) "sub-report sample count" windows
    (Cli.int_at [ "sampled" ] sub);
  (match Cli.member [ "windows" ] sub with
  | Mclh_report.Json.List ws ->
    Alcotest.(check int) "one entry per window" windows (List.length ws);
    List.iter
      (fun w ->
        match Cli.member [ "status" ] w with
        (* windows without an exact solution carry a null gap *)
        | Mclh_report.Json.String ("infeasible" | "budget") -> ()
        | _ ->
          Alcotest.(check bool) "gap >= 0" true
            (Cli.float_at [ "gap" ] w >= -1e-6))
      ws
  | _ -> Alcotest.fail "windows is not a list");
  Alcotest.(check bool) "max gap >= 0" true
    (Cli.float_at [ "gauges"; "audit/max_gap" ] r >= 0.0)

(* unreadable, malformed and mismatched user files, and edits the design
   rejects, exit 1 with a message — never an uncaught exception (125) *)
let check_bad_input_exits_1 () =
  let tmp suffix = Filename.temp_file "mclh_bad" suffix in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let small = tmp ".mclh" and large = tmp ".mclh" and placed = tmp ".pl.mclh" in
  Alcotest.(check int) "gen small" 0
    (Cli.run [ "gen"; "-b"; "fft_2"; "-s"; "0.01"; "-o"; small ]);
  Alcotest.(check int) "gen large" 0
    (Cli.run [ "gen"; "-b"; "fft_1"; "-s"; "0.02"; "-o"; large ]);
  Alcotest.(check int) "legalize small" 0
    (Cli.run [ "legalize"; "-i"; small; "-o"; placed ]);
  let truncated = tmp ".mclh" in
  write truncated
    (String.concat "\n"
       (List.filteri (fun i _ -> i < 10)
          (String.split_on_char '\n' (Cli.read_file small))));
  let edits text =
    let path = tmp ".edits" in
    write path ("mclh-edits 1\n" ^ text ^ "\n");
    path
  in
  let bad_number = edits "move 3 abc 2.5" and bad_cell = edits "move 99999 4 2" in
  let converted = tmp ".mclh" in
  List.iter
    (fun (what, args) ->
      let code, _, err = Cli.run_output args in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      Alcotest.(check bool) (what ^ " explains itself") true
        (err <> "" && not (Cli.contains err "uncaught exception")))
    [ ("missing design", [ "legalize"; "-i"; "/nonexistent" ]);
      ("truncated design", [ "legalize"; "-i"; truncated ]);
      ("placement of another design", [ "check"; "-i"; large; "-p"; placed ]);
      ("missing bookshelf", [ "stats"; "-i"; "/nope.aux" ]);
      ("missing convert input", [ "convert"; "-i"; "/nope.mclh"; "-o"; converted ]);
      ("missing edits file", [ "eco"; "-i"; small; "-e"; "/nope.edits" ]);
      ("malformed edit", [ "eco"; "-i"; small; "-e"; bad_number ]);
      ("out-of-range edit", [ "eco"; "-i"; small; "-e"; bad_cell ]) ];
  List.iter Sys.remove
    [ small; large; placed; truncated; bad_number; bad_cell; converted ]

(* out-of-range or non-finite numeric flags are command-line errors
   (exit 124 with the message), never a crash or a silent nan run *)
let check_bad_flags_exit_124 () =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let code, _, err = Cli.run_output args in
      Alcotest.(check int) (what ^ " exits 124") 124 code;
      Alcotest.(check bool) (what ^ " explains itself") true
        (err <> "" && not (Cli.contains err "uncaught exception")))
    (List.map
       (fun flags -> [ "run"; "-b"; "fft_2"; "-s"; "0.02" ] @ flags)
       [ [ "--eps=-1" ]; [ "--lambda=-5" ]; [ "--max-iter"; "0" ];
         [ "--lambda"; "nan" ]; [ "--lambda"; "inf" ]; [ "--eps"; "nan" ] ]
    @ [ [ "pipeline"; "--grid"; "3" ];
        [ "pipeline"; "--gp-rounds"; "0" ];
        [ "pipeline"; "--target-density"; "0" ];
        [ "run"; "-b"; "fft_2"; "-s"; "nan" ] ])

let test_cli_exit_codes () =
  if not (Cli.available ()) then Alcotest.skip ()
  else begin
    (* an over-capacity design is a typed report + exit 2 under every
       algorithm, not a crash *)
    List.iter
      (fun alg ->
        let alg = Runner.name alg in
        let code, _, err =
          Cli.run_output [ "run"; "--scenario"; "oversub"; "-s"; "1"; "-a"; alg ]
        in
        Alcotest.(check int) ("oversub exits 2 under " ^ alg) 2 code;
        Alcotest.(check bool) ("oversub reports unplaced cells under " ^ alg) true
          (Cli.contains err "could not be legally placed"))
      Runner.all;
    Alcotest.(check int) "fence-oversub exits 2 under mmsim" 2
      (Cli.run [ "run"; "--scenario"; "fence-oversub"; "-s"; "0.25" ]);
    Alcotest.(check int) "audit runs clean on a feasible design" 0
      (Cli.run [ "audit"; "-b"; "fft_2"; "-s"; "0.008"; "--windows"; "4" ]);
    Alcotest.(check int) "unknown scenario exits 1" 1
      (Cli.run [ "run"; "--scenario"; "bogus" ]);
    (* fence-cross cannot pack its fences at the default scale: the
       generator's failure is a clean exit 1, not an escaped exception *)
    Alcotest.(check int) "generator failure exits 1" 1
      (Cli.run [ "run"; "--scenario"; "fence-cross" ]);
    (* a refine window straddling a blockage must not be packed onto it *)
    Alcotest.(check int) "refine next to blockages exits 0" 0
      (Cli.run
         [ "pipeline"; "-b"; "des_perf_1"; "-s"; "0.02"; "--blockages"; "0.1" ]);
    check_fence_dense_audit ();
    check_bad_input_exits_1 ();
    check_bad_flags_exit_124 ()
  end

let () =
  Alcotest.run "audit"
    [ ( "exact",
        [ QCheck_alcotest.to_alcotest qc_exact_matches_brute;
          Alcotest.test_case "pinned infeasible" `Quick test_pinned_infeasible;
          Alcotest.test_case "budget exhaustion typed" `Quick
            test_budget_exhaustion_typed;
          Alcotest.test_case "single cell snaps" `Quick
            test_single_cell_snaps_to_target ] );
      ( "audit",
        [ Alcotest.test_case "witness windows feasible" `Quick
            test_witness_windows_feasible;
          Alcotest.test_case "sorted single-height certifies" `Quick
            test_sorted_single_height_certifies ] );
      ( "scenarios",
        [ Alcotest.test_case "typed legalizer errors" `Quick
            test_legalizers_return_typed_errors;
          Alcotest.test_case "fence over-subscription" `Quick
            test_fence_oversub_detected;
          Alcotest.test_case "no scenario crashes any algorithm" `Slow
            test_all_scenarios_all_algorithms_no_crash;
          Alcotest.test_case "names round-trip" `Quick
            test_scenario_names_roundtrip ] );
      ( "cli",
        [ Alcotest.test_case "exit codes" `Quick test_cli_exit_codes ] ) ]
