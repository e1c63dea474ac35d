(* ECO replay: the four-design fleet of the serve_eco benchmark (fft_2
   twice, pci_bridge32_a and pci_bridge32_b at scale 0.04 with 15%
   blockage in 32 rectangles), each design in an in-process incremental
   session, under 1,000 seeded batches of four local moves. Prints the
   per-batch latency, where it goes, the MMSIM iterations summed over
   all batches and an MD5 over the four final placements. The digest and
   the iteration total depend only on the code, never on MCLH_DOMAINS,
   so an output-neutral change to the session keeps both.

     dune exec examples/eco_replay.exe *)

open Mclh_circuit
module Incr = Mclh_incr.Incr
module Edit = Mclh_incr.Edit
module Rng = Mclh_benchgen.Rng
module Obs = Mclh_obs.Obs

let fleet = [ ("fft_2", 1); ("fft_2", 7); ("pci_bridge32_a", 1); ("pci_bridge32_b", 1) ]
let batches = 1000

let generate (bench, seed) =
  let options =
    { Mclh_benchgen.Generate.default_options with
      seed;
      blockage_fraction = 0.15;
      blockage_count = 32 }
  in
  (Mclh_benchgen.Generate.generate ~options
     (Mclh_benchgen.Spec.scaled 0.04 (Mclh_benchgen.Spec.find bench)))
    .Mclh_benchgen.Generate.design

(* four moves, each a Gaussian step from the cell's original position:
   5 sites across, 0.75 rows up or down *)
let batch rng (d : Design.t) =
  let g = d.Design.global in
  let bound a = Array.fold_left Float.max 1.0 a in
  let max_x = bound g.Placement.xs and max_y = bound g.Placement.ys in
  let clamp hi v = Float.min hi (Float.max 0.0 v) in
  List.init 4 (fun _ ->
      let cell = Rng.int rng (Design.num_cells d) in
      let x = clamp max_x (g.Placement.xs.(cell) +. (5.0 *. Rng.gaussian rng)) in
      let y = clamp max_y (g.Placement.ys.(cell) +. (0.75 *. Rng.gaussian rng)) in
      Edit.Move { cell; x; y })

let () =
  let obs = Obs.create () in
  let sessions =
    Array.of_list
      (List.map
         (fun s ->
           let d = generate s in
           (d, Incr.create ~obs d))
         fleet)
  in
  let rng = Rng.create 7919 in
  let latency = Array.make batches 0.0 and iterations = ref 0 in
  for b = 0 to batches - 1 do
    let d, session = sessions.(Rng.int rng (Array.length sessions)) in
    let st = Incr.apply session (batch rng d) in
    latency.(b) <- 1000.0 *. st.Incr.latency_s;
    iterations := !iterations + st.Incr.solve_iterations
  done;
  Array.sort Float.compare latency;
  Printf.printf "%d batches: p50 %.3f ms, p90 %.3f ms per batch\n" batches
    latency.(batches / 2) latency.(batches * 9 / 10);
  List.iter
    (fun stage ->
      let total = List.assoc_opt ("incr/" ^ stage) (Obs.spans obs) in
      Printf.printf "  %-6s %.3f ms per batch\n" stage
        (1000.0 *. Option.value total ~default:0.0 /. float_of_int batches))
    [ "assign"; "model"; "solve"; "alloc"; "total" ];
  let digests =
    Array.map
      (fun (_, session) ->
        let path = Filename.temp_file "eco_replay" ".pl" in
        Io.write_placement ~path (Incr.legal session);
        let digest = Digest.file path in
        Sys.remove path;
        digest)
      sessions
  in
  Printf.printf "iterations %d, placements md5 %s\n" !iterations
    (Digest.to_hex (Digest.string (String.concat "" (Array.to_list digests))))
