(* Tests for the reporting library (ASCII tables, CSV) and an end-to-end
   exercise of the command-line tool. *)

open Mclh_report

(* ---------- Table ---------- *)

let test_table_render () =
  let t =
    Table.create
      [ { Table.title = "name"; align = Table.Left };
        { title = "value"; align = Table.Right } ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22222" ];
  Table.add_separator t;
  Table.add_row t [ "total"; "22223" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (Cli.contains s "name");
  Alcotest.(check bool) "has rule" true (Cli.contains s "---");
  Alcotest.(check bool) "has rows" true
    (Cli.contains s "alpha" && Cli.contains s "22223");
  (* right alignment pads the short value *)
  Alcotest.(check bool) "right aligned" true (Cli.contains s "     1");
  (* all lines of the body have equal length *)
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  let lens = List.map String.length lines in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (( = ) (List.hd lens)) lens)

let test_table_arity () =
  let t = Table.create [ { Table.title = "a"; align = Table.Left } ] in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       Table.add_row t [ "x"; "y" ];
       false
     with Invalid_argument _ -> true)

let test_table_formatters () =
  Alcotest.(check string) "fmt_float" "3.14" (Table.fmt_float 2 3.14159);
  Alcotest.(check string) "fmt_int" "42" (Table.fmt_int 41.7);
  Alcotest.(check string) "fmt_pct" "12.3%" (Table.fmt_pct 1 0.1234)

let test_normalized_average () =
  Alcotest.(check (float 1e-9)) "simple" 2.0
    (Table.normalized_average [ 2.0; 4.0 ] ~baseline:[ 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "skips zero baselines" 3.0
    (Table.normalized_average [ 3.0; 9.0 ] ~baseline:[ 1.0; 0.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Table.normalized_average [] ~baseline:[])

(* ---------- Csv ---------- *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "row" "a,\"b,c\",d" (Csv.row [ "a"; "b,c"; "d" ])

let test_csv_file () =
  let path = Filename.temp_file "mclh_csv" ".csv" in
  Csv.write_file ~path ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4,5" ] ];
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "content" "x,y\n1,2\n3,\"4,5\"\n" content

(* ---------- CLI end to end ---------- *)

let test_cli_available () =
  if not (Cli.available ()) then
    Alcotest.skip ()
  else Alcotest.(check int) "list" 0 (Cli.run [ "list" ])

let test_cli_roundtrip () =
  if not (Cli.available ()) then Alcotest.skip ()
  else begin
    let design = Filename.temp_file "mclh_cli" ".mclh" in
    let placed = Filename.temp_file "mclh_cli" ".pl.mclh" in
    Alcotest.(check int) "gen" 0
      (Cli.run [ "gen"; "-b"; "fft_a"; "-s"; "0.005"; "-o"; design ]);
    Alcotest.(check int) "legalize" 0
      (Cli.run [ "legalize"; "-i"; design; "-a"; "mmsim"; "-o"; placed ]);
    (* check exits 0 only for a legal placement *)
    Alcotest.(check int) "check" 0
      (Cli.run [ "check"; "-i"; design; "-p"; placed ]);
    Alcotest.(check int) "stats" 0 (Cli.run [ "stats"; "-i"; design ]);
    Sys.remove design;
    Sys.remove placed
  end

(* ---------- Json parser robustness ---------- *)

let test_json_nesting_bomb () =
  (* a deeply nested document must come back as a clean parse error, not a
     Stack_overflow crash *)
  let bombs =
    [ String.make 100_000 '[';
      String.concat "" (List.init 100_000 (fun _ -> "{\"a\":"));
      String.make 50_000 '[' ^ "1" ^ String.make 50_000 ']' ]
  in
  List.iter
    (fun bomb ->
      match Json.of_string bomb with
      | Ok _ -> Alcotest.fail "nesting bomb parsed"
      | Error msg ->
        Alcotest.(check bool) "error names the depth cap" true
          (Cli.contains msg "nesting"))
    bombs;
  (* nesting below the cap still parses *)
  let deep n = String.make n '[' ^ "7" ^ String.make n ']' in
  (match Json.of_string (deep 400) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 400 should parse: %s" msg);
  match Json.of_string (deep 513) with
  | Ok _ -> Alcotest.fail "depth 513 should hit the cap"
  | Error _ -> ()

let test_cli_rejects_unknown () =
  if not (Cli.available ()) then Alcotest.skip ()
  else begin
    Alcotest.(check bool) "unknown bench fails" true
      (Cli.run [ "run"; "-b"; "nonexistent" ] <> 0);
    Alcotest.(check bool) "unknown alg fails" true
      (Cli.run [ "run"; "-b"; "fft_a"; "-a"; "nope" ] <> 0)
  end

let () =
  Alcotest.run "report"
    [ ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "formatters" `Quick test_table_formatters;
          Alcotest.test_case "normalized average" `Quick test_normalized_average ] );
      ( "csv",
        [ Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "file" `Quick test_csv_file ] );
      ( "json",
        [ Alcotest.test_case "nesting bomb" `Quick test_json_nesting_bomb ] );
      ( "cli",
        [ Alcotest.test_case "list" `Quick test_cli_available;
          Alcotest.test_case "gen/legalize/check" `Slow test_cli_roundtrip;
          Alcotest.test_case "error handling" `Quick test_cli_rejects_unknown ] ) ]
