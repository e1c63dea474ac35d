(* Table 2: total displacement, dHPWL and runtime for the four legalizers,
   with the paper's reported values and normalized averages. *)

open Mclh_core
open Mclh_report

let algorithms =
  [ Runner.Greedy_dac16; Runner.Greedy_dac16_improved; Runner.Abacus_multirow;
    Runner.Mmsim ]

type measured = {
  name : string;
  disp : float array;  (* per algorithm, paper column order *)
  dhpwl : float array;
  runtime : float array;
}

let measure name =
  let inst = Util.instance name in
  let d = inst.Mclh_benchgen.Generate.design in
  let reports = List.map (fun alg -> Runner.run alg d) algorithms in
  { name;
    disp =
      Array.of_list
        (List.map (fun r -> r.Runner.displacement.Mclh_circuit.Metrics.total_manhattan) reports);
    dhpwl = Array.of_list (List.map (fun r -> r.Runner.delta_hpwl) reports);
    runtime = Array.of_list (List.map (fun r -> r.Runner.runtime_s) reports) }

let norm_averages rows extract =
  (* mean over benchmarks of column / "Ours" column, as the paper's last row *)
  List.init 4 (fun c ->
      let ratios =
        List.filter_map
          (fun row ->
            let v = extract row in
            if v.(3) = 0.0 then None else Some (v.(c) /. v.(3)))
          rows
      in
      if ratios = [] then 0.0
      else List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios))

let run () =
  Util.section
    (Printf.sprintf
       "Table 2 - displacement / dHPWL / runtime, four legalizers (scale %g)"
       Util.scale);
  let rows = Util.fanout ~label:"table2 fan-out" measure (Util.benchmarks ()) in
  let mk_table title fmt extract paper_extract =
    Printf.printf "\n--- %s ---\n" title;
    let table =
      Table.create
        [ { Table.title = "Benchmark"; align = Table.Left };
          { title = "DAC'16"; align = Right };
          { title = "DAC'16-Imp"; align = Right };
          { title = "ASP-DAC'17"; align = Right };
          { title = "Ours"; align = Right };
          { title = "paper DAC'16"; align = Right };
          { title = "paper ASP"; align = Right };
          { title = "paper Ours"; align = Right } ]
    in
    List.iter
      (fun row ->
        let v = extract row in
        let p1, _, p3, p4 =
          match
            List.find_opt (fun (p : Paper_data.table2_row) -> p.name = row.name)
              Paper_data.table2
          with
          | Some p -> paper_extract p
          | None -> (0.0, 0.0, 0.0, 0.0)
        in
        Table.add_row table
          [ row.name; fmt v.(0); fmt v.(1); fmt v.(2); fmt v.(3); fmt p1;
            fmt p3; fmt p4 ])
      rows;
    Table.add_separator table;
    let na = norm_averages rows extract in
    Table.add_row table
      ([ "N.Average (ours = 1.00)" ]
      @ List.map (Table.fmt_float 2) na
      @ [ "-"; "-"; "-" ]);
    print_string (Table.render table)
  in
  mk_table "Total displacement (sites)" Table.fmt_int
    (fun r -> r.disp)
    (fun p -> p.Paper_data.disp);
  mk_table "dHPWL (%)"
    (fun v -> Table.fmt_float 3 (100.0 *. v))
    (fun r -> r.dhpwl)
    (fun p ->
      let a, b, c, d = p.Paper_data.dhpwl_pct in
      (a /. 100.0, b /. 100.0, c /. 100.0, d /. 100.0));
  mk_table "Runtime (s)"
    (fun v -> Table.fmt_float 2 v)
    (fun r -> r.runtime)
    (fun p -> p.Paper_data.runtime_s);
  (* decomposition report: component structure of each design's LCP and
     the solve time of the component-parallel path. Runs sequentially
     over benchmarks so the solver's own shard fan-out owns the pool
     (under Util.fanout it would find the pool busy). *)
  Printf.printf "\n--- LCP decomposition (domain pool: %d) ---\n"
    (Mclh_par.Pool.size (Util.pool ()));
  let dtable =
    Table.create
      [ { Table.title = "Benchmark"; align = Table.Left };
        { title = "n+m"; align = Right };
        { title = "components"; align = Right };
        { title = "largest"; align = Right };
        { title = "solve (s)"; align = Right } ]
  in
  List.iter
    (fun name ->
      let inst = Util.instance name in
      let d = inst.Mclh_benchgen.Generate.design in
      let assignment = Row_assign.assign d in
      let model = Model.build d assignment in
      let deco = Decompose.analyze model in
      (* best of three: at FAST scales the solves take milliseconds, where
         a single timing is dominated by GC and scheduler noise *)
      let t_solve = ref infinity in
      for _ = 1 to 3 do
        let _, t = Mclh_par.Clock.timed (fun () -> Solver.solve model) in
        t_solve := Float.min !t_solve t
      done;
      Table.add_row dtable
        [ name;
          string_of_int (model.Model.nvars + Model.num_constraints model);
          string_of_int (Decompose.num_components deco);
          string_of_int (Decompose.largest_dim deco);
          Table.fmt_float 3 !t_solve ])
    (Util.benchmarks ());
  print_string (Table.render dtable);
  let p1, p2, p3, p4 = Paper_data.table2_norm_disp in
  Printf.printf
    "\npaper N.Average  disp: %.2f %.2f %.2f %.2f" p1 p2 p3 p4;
  let h1, h2, h3, h4 = Paper_data.table2_norm_dhpwl in
  Printf.printf "   dHPWL: %.2f %.2f %.2f %.2f" h1 h2 h3 h4;
  let r1, r2, r3, r4 = Paper_data.table2_norm_runtime in
  Printf.printf "   runtime: %.2f %.2f %.2f %.2f\n%!" r1 r2 r3 r4;
  (* export a CSV for downstream analysis *)
  Util.ensure_out_dir ();
  Csv.write_file
    ~path:(Filename.concat Util.out_dir "table2.csv")
    ~header:
      [ "benchmark"; "disp_dac16"; "disp_dac16imp"; "disp_aspdac17"; "disp_ours";
        "dhpwl_dac16"; "dhpwl_dac16imp"; "dhpwl_aspdac17"; "dhpwl_ours";
        "time_dac16"; "time_dac16imp"; "time_aspdac17"; "time_ours" ]
    (List.map
       (fun r ->
         [ r.name ]
         @ (Array.to_list r.disp |> List.map (Printf.sprintf "%.1f"))
         @ (Array.to_list r.dhpwl |> List.map (Printf.sprintf "%.6f"))
         @ (Array.to_list r.runtime |> List.map (Printf.sprintf "%.3f")))
       rows);
  Printf.printf "CSV written to %s/table2.csv\n%!" Util.out_dir
