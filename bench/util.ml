(* Shared harness plumbing: scale selection, instance cache, output dir. *)

open Mclh_circuit
open Mclh_benchgen

let usage_error msg =
  prerr_endline msg;
  exit 2

let scale =
  match Sys.getenv_opt "MCLH_SCALE" with
  | None -> 0.04
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some v when Float.is_finite v && v > 0.0 -> v
    | Some _ | None ->
      usage_error
        (Printf.sprintf "MCLH_SCALE: expected a positive number, got %S" s))

let fast_mode = Sys.getenv_opt "MCLH_FAST" <> None

let out_dir = "bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" bar title bar

let benchmarks () =
  if fast_mode then
    [ "des_perf_1"; "fft_1"; "fft_2"; "pci_bridge32_b"; "matrix_mult_a" ]
  else Spec.names

(* instances are expensive to generate at full scale; cache per run.
   Access is mutex-protected because the harness fans benchmarks out over
   domains. *)
let cache : (string, Generate.instance) Hashtbl.t = Hashtbl.create 32
let cache_lock = Mutex.create ()

let instance ?(single_height = false) name =
  let key = Printf.sprintf "%s/%b" name single_height in
  let cached =
    Mutex.lock cache_lock;
    let v = Hashtbl.find_opt cache key in
    Mutex.unlock cache_lock;
    v
  in
  match cached with
  | Some inst -> inst
  | None ->
    let options =
      { Generate.default_options with single_height_only = single_height }
    in
    let inst = Generate.generate ~options (Spec.scaled scale (Spec.find name)) in
    Mutex.lock cache_lock;
    if not (Hashtbl.mem cache key) then Hashtbl.replace cache key inst;
    Mutex.unlock cache_lock;
    inst

(* deterministic parallel map over independent benchmark jobs: results come
   back in input order whatever the scheduling. The shared domain pool
   honours MCLH_DOMAINS; nested parallel layers (Fence territories, the
   solver's shard fan-out) find the pool busy and run sequentially. *)
let pool () = Mclh_par.Pool.default ()

let parallel_map f items =
  Array.to_list (Mclh_par.Pool.parallel_map (pool ()) f (Array.of_list items))

(* fan [f] out over the benchmark jobs, timing each job and the whole
   fan-out on the wall clock, and report the multicore speedup: summed
   per-job wall seconds vs elapsed wall seconds *)
let fanout ~label f items =
  let t0 = Mclh_par.Clock.now () in
  let timed_results = parallel_map (fun x -> Mclh_par.Clock.timed (fun () -> f x)) items in
  let wall = Mclh_par.Clock.now () -. t0 in
  let work = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 timed_results in
  Printf.printf
    "[%s] %d jobs on %d domains: %.2fs of work in %.2fs wall (%.2fx speedup)\n%!"
    label (List.length timed_results)
    (Mclh_par.Pool.size (pool ()))
    work wall
    (if wall > 0.0 then work /. wall else 1.0);
  List.map fst timed_results

let row_height (d : Design.t) = d.Design.chip.Chip.row_height

let manhattan d placement =
  (Metrics.displacement ~row_height:(row_height d) ~before:d.Design.global
     placement)
    .Metrics.total_manhattan
