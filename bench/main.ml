(* Benchmark harness entry point: regenerates every table and figure of the
   paper's evaluation section (paper values printed alongside), then runs
   the ablations and the extensions beyond the paper.

   Environment:
     MCLH_SCALE   instance scale factor (default 0.04; 1.0 = paper size)
     MCLH_FAST    if set, run a 5-benchmark subset
     MCLH_ONLY    comma-separated subset of sections:
                  table1,table2,sec53,fig5,ablations,extensions
   A malformed MCLH_SCALE, an unknown MCLH_ONLY name or an MCLH_DOMAINS
   outside 1..128 exits 2. *)

let sections =
  [ ("table1", Table1.run);
    ("table2", Table2.run);
    ("sec53", Sec53.run);
    ("fig5", Fig5.run);
    ("ablations", Ablations.run);
    ("extensions", Extensions.run) ]

let () =
  (match Mclh_core.Config.validate Mclh_core.Config.default with
  | Ok _ -> ()
  | Error msg -> Util.usage_error ("MCLH_DOMAINS: " ^ msg));
  let only =
    match Sys.getenv_opt "MCLH_ONLY" with
    | None -> None
    | Some s ->
      let names = String.split_on_char ',' s |> List.map String.trim in
      (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
      | [] -> ()
      | unknown ->
        Util.usage_error
          (Printf.sprintf "MCLH_ONLY: unknown section(s) %s (valid: %s)"
             (String.concat ", " unknown)
             (String.concat ", " (List.map fst sections))));
      Some names
  in
  Printf.printf
    "mclh benchmark harness — scale %g%s\n%!" Util.scale
    (if Util.fast_mode then " (fast mode)" else "");
  List.iter
    (fun (name, run) ->
      match only with
      | Some names when not (List.mem name names) -> ()
      | Some _ | None -> run ())
    sections;
  Printf.printf "\nDone.\n%!"
