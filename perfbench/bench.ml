(* The repository benchmark. One run measures one workload:

     bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0

   Inputs are generated from --seed; the program under test only sees
   the generated designs and edits. With --trace 0 the run reports the
   end-to-end metrics; with --trace 1 it measures once untraced and once
   with every layer call in a span, and reports the per-layer metrics and
   the tracing overhead. The last stdout line is the JSON result; a
   fuller record (metadata, and the spans of a traced run) is written to
   perfbench_out/. See NOTES.md for why the workloads are what they are. *)

let workloads =
  [ ("pipeline", Pipeline.run); ("legalize_large", Legalize_large.run);
    ("serve_eco", Serve_eco.run) ]

let usage =
  "bench.exe --workload {pipeline|legalize_large|serve_eco} --seed N \
   --seconds S --trace {0|1}\n\
   bench.exe --self-test"

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the commit the checkout came from, when it still has its .git *)
let git_rev () =
  let head = Filename.concat ".git" "HEAD" in
  if not (Sys.file_exists head) then "unknown"
  else
    let h = String.trim (read_file head) in
    match String.split_on_char ' ' h with
    | [ "ref:"; ref_ ] ->
      let p = Filename.concat ".git" ref_ in
      if Sys.file_exists p then String.trim (read_file p) else h
    | _ -> h

(* digest of the program's sources, identifying the code measured even
   where the checkout carries no git metadata *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || f = "dune"
           then [ p ]
           else [])
  in
  let all = List.concat_map files [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ read_file p) all)))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and self_test = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--self-test", Arg.Set self_test, " check the statistics code and exit") ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %S\n%s" a usage) usage;
  (* a terminated run still reaps the daemon it spawned (at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ];
  (match Selftest.failures () with
  | [] -> ()
  | bad -> fail "self-test failed: %s" (String.concat ", " bad));
  if !self_test then begin
    print_endline "perfbench: self-tests passed";
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> fail "unknown workload %S\n%s" !workload usage
  in
  if !seed < 0 then fail "--seed wants a non-negative integer";
  if !seconds <= 0.0 then fail "--seconds wants a positive number";
  if !trace <> 0 && !trace <> 1 then fail "--trace wants 0 or 1";
  let domains =
    match Sys.getenv_opt "MCLH_DOMAINS" with
    | Some d -> d
    | None -> fail "MCLH_DOMAINS is not set: run through perfbench/run.sh"
  in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let measured = if !trace = 1 then o.Common.layers else o.Common.e2e in
  List.iter
    (fun (k, v) ->
      if not (Float.is_finite v && (v > 0.0 || (v = 0.0 && List.mem k Common.may_be_zero)))
      then fail "metric %s is %g" k v)
    measured;
  (* the result names every metric of its kind; a layer the workload
     does not run prints 0 there and is listed in the record *)
  let units =
    if !trace = 1 then
      Common.layer_metrics @ List.map (fun (k, _) -> (k, "ratio")) Common.overhead_metrics
    else Common.e2e_metrics
  in
  let not_run = List.filter (fun (k, _) -> not (List.mem_assoc k measured)) units in
  let metrics =
    List.map (fun (k, _) -> (k, Option.value ~default:0.0 (List.assoc_opt k measured))) units
  in
  let open Mclh_report.Json in
  let metric_json =
    Obj
      (List.map
         (fun (k, v) ->
           (k, Obj [ ("value", Float v); ("unit", String (List.assoc k units)) ]))
         metrics)
  in
  let meta =
    Obj
      ([ ("workload", String !workload); ("seed", Int !seed);
         ("seconds", Float !seconds); ("trace", Int !trace);
         ("git_rev", String (git_rev ())); ("source_digest", String (source_digest ()));
         ("nproc", Int (Domain.recommended_domain_count ()));
         ("domains", String domains);
         ("layers_not_run", List (List.map (fun (k, _) -> String k) not_run)) ]
      @ o.Common.notes)
  in
  let result =
    Obj
      [ ("correct", Bool o.Common.correct); ("attempted", Int o.Common.attempted);
        ("failed", Int o.Common.failed); ("metrics", metric_json) ]
  in
  if not (Sys.file_exists Common.out_dir) then Sys.mkdir Common.out_dir 0o755;
  to_file
    ~path:(Filename.concat Common.out_dir (Printf.sprintf "%s-seed%d-trace%d.json" !workload !seed !trace))
    (Obj
       ([ ("meta", meta); ("result", result) ]
       @ if !trace = 1 then [ ("spans", Span.to_json ()) ] else []));
  print_endline (to_string ~indent:false meta);
  print_endline (to_string ~indent:false result)
