(* Helpers shared by the test executables that drive the mclh CLI binary
   end to end. *)

open Mclh_report

(* dune runtest runs from _build/default/test; dune exec from the root *)
let exe =
  List.find_opt Sys.file_exists
    [ "../bin/mclh_cli.exe"; "_build/default/bin/mclh_cli.exe" ]
  |> Option.value ~default:"../bin/mclh_cli.exe"

let available () = Sys.file_exists exe

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* exit code of [mclh args], output discarded *)
let run args = Sys.command (Filename.quote_command exe args ^ " > /dev/null 2>&1")

(* exit code, stdout and stderr of [mclh args], with [env] bindings added
   to the environment *)
let run_output ?(env = []) args =
  let out = Filename.temp_file "mclh_cli" ".out" in
  let err = Filename.temp_file "mclh_cli" ".err" in
  let bindings =
    List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v ^ " ") env |> String.concat ""
  in
  let code =
    Sys.command (bindings ^ Filename.quote_command exe ~stdout:out ~stderr:err args)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* the JSON document written to [path] (a --metrics-out report) *)
let read_json path =
  match Json.of_string (read_file path) with
  | Ok json -> json
  | Error e -> Alcotest.failf "%s does not parse: %s" path e

let member path json =
  List.fold_left
    (fun v key ->
      match Json.member key v with
      | Some v -> v
      | None -> Alcotest.failf "field %s missing" (String.concat "." path))
    json path

let int_at path json =
  match member path json with
  | Json.Int n -> n
  | _ -> Alcotest.failf "field %s is not an int" (String.concat "." path)

let float_at path json =
  match member path json with
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | _ -> Alcotest.failf "field %s is not a number" (String.concat "." path)

(* the field names of the object at [path] *)
let keys path json =
  match member path json with
  | Json.Obj fields -> List.map fst fields
  | _ -> Alcotest.failf "field %s is not an object" (String.concat "." path)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix
