(* Tests for the synthetic benchmark generator: determinism, statistical
   fidelity to the Table 1 specs, and feasibility of the reference packing. *)

open Mclh_circuit
open Mclh_benchgen

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same ints" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.of_string "fft_2#1" and d = Rng.of_string "fft_2#1" in
  Alcotest.(check (float 0.0)) "same floats" (Rng.float c 1.0) (Rng.float d 1.0);
  let e = Rng.of_string "fft_2#2" in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.float d 1.0 <> Rng.float e 1.0)

let test_rng_ranges () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v;
    let f = Rng.float rng 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.failf "float out of range: %g" f;
    let k = Rng.int_in rng (-3) 3 in
    if k < -3 || k > 3 then Alcotest.failf "int_in out of range: %d" k
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.05)

let test_spec_table () =
  Alcotest.(check int) "20 benchmarks" 20 (List.length Spec.all);
  let s = Spec.find "des_perf_1" in
  Alcotest.(check int) "singles" 103842 s.Spec.singles;
  Alcotest.(check int) "doubles" 8802 s.Spec.doubles;
  Alcotest.(check (float 1e-9)) "density" 0.91 s.Spec.density;
  let sb = Spec.find "superblue12" in
  Alcotest.(check int) "largest" 1172586 sb.Spec.singles;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Spec.find "nonexistent");
       false
     with Not_found -> true)

let test_spec_scaled () =
  let s = Spec.scaled 0.01 (Spec.find "fft_2") in
  Alcotest.(check int) "singles scaled" 303 s.Spec.singles;
  Alcotest.(check int) "doubles scaled" 20 s.Spec.doubles;
  Alcotest.(check (float 1e-9)) "density kept" 0.50 s.Spec.density;
  let tiny = Spec.scaled 1e-9 (Spec.find "fft_2") in
  Alcotest.(check int) "at least one single" 1 tiny.Spec.singles;
  List.iter
    (fun factor ->
      Alcotest.check_raises (Printf.sprintf "factor %g rejected" factor)
        (Invalid_argument "Spec.scaled: factor must be positive and finite")
        (fun () -> ignore (Spec.scaled factor (Spec.find "fft_2"))))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let generate name scale =
  Generate.generate (Spec.scaled scale (Spec.find name))

let test_reference_is_legal () =
  List.iter
    (fun name ->
      let inst = generate name 0.01 in
      let v = Legality.check inst.Generate.design inst.Generate.reference in
      if v <> [] then
        Alcotest.failf "%s: reference packing has %d violations" name
          (List.length v))
    [ "des_perf_1"; "fft_2"; "pci_bridge32_b"; "superblue12" ]

let test_generation_deterministic () =
  let a = generate "fft_2" 0.01 and b = generate "fft_2" 0.01 in
  Alcotest.(check bool) "same global placement" true
    (Placement.equal a.Generate.design.Design.global b.Generate.design.Design.global);
  Alcotest.(check int) "same nets"
    (Netlist.num_nets a.Generate.design.Design.nets)
    (Netlist.num_nets b.Generate.design.Design.nets);
  let c =
    Generate.generate
      ~options:{ Generate.default_options with seed = 2 }
      (Spec.scaled 0.01 (Spec.find "fft_2"))
  in
  Alcotest.(check bool) "different seed differs" false
    (Placement.equal a.Generate.design.Design.global c.Generate.design.Design.global)

let test_density_close_to_spec () =
  List.iter
    (fun (name, expect) ->
      let inst = generate name 0.02 in
      let actual = Design.density inst.Generate.design in
      if Float.abs (actual -. expect) > 0.08 then
        Alcotest.failf "%s: density %.3f vs spec %.3f" name actual expect)
    [ ("des_perf_1", 0.91); ("fft_2", 0.50); ("pci_bridge32_b", 0.14) ]

let test_cell_mix () =
  let inst = generate "fft_2" 0.02 in
  let d = inst.Generate.design in
  let heights = Design.count_by_height d in
  let singles = List.assoc 1 heights and doubles = List.assoc 2 heights in
  Alcotest.(check int) "singles" 606 singles;
  Alcotest.(check int) "doubles" 40 doubles;
  (* doubled cells have both rail polarities *)
  let vdd = ref 0 and vss = ref 0 in
  Array.iter
    (fun (c : Cell.t) ->
      match c.Cell.bottom_rail with
      | Some Rail.Vdd -> incr vdd
      | Some Rail.Vss -> incr vss
      | None -> ())
    d.Design.cells;
  Alcotest.(check bool) "both polarities present" true (!vdd > 0 && !vss > 0)

let test_single_height_mode () =
  let inst =
    Generate.generate
      ~options:{ Generate.default_options with single_height_only = true }
      (Spec.scaled 0.02 (Spec.find "fft_2"))
  in
  Array.iter
    (fun (c : Cell.t) ->
      if c.Cell.height <> 1 then Alcotest.fail "found a multi-row cell")
    inst.Generate.design.Design.cells

let test_global_in_bounds () =
  let inst = generate "des_perf_1" 0.01 in
  let d = inst.Generate.design in
  let chip = d.Design.chip in
  Array.iter
    (fun (c : Cell.t) ->
      let i = c.Cell.id in
      let x = d.Design.global.Placement.xs.(i)
      and y = d.Design.global.Placement.ys.(i) in
      if
        x < 0.0
        || x +. float_of_int c.Cell.width > float_of_int chip.Chip.num_sites
        || y < 0.0
        || y +. float_of_int c.Cell.height > float_of_int chip.Chip.num_rows
      then Alcotest.failf "cell %d out of bounds in global placement" i)
    d.Design.cells

let test_nets_are_local () =
  let inst = generate "fft_2" 0.02 in
  let d = inst.Generate.design in
  Alcotest.(check bool) "nets exist" true (Netlist.num_nets d.Design.nets > 0);
  (* locality: mean net HPWL well below the chip half-perimeter *)
  let mean_hpwl =
    Hpwl.total d.Design.nets d.Design.global
    /. float_of_int (Netlist.num_nets d.Design.nets)
  in
  let half_perim =
    float_of_int (d.Design.chip.Chip.num_sites + d.Design.chip.Chip.num_rows)
  in
  Alcotest.(check bool) "nets are local" true (mean_hpwl < half_perim /. 4.0)

let test_generate_named () =
  let inst = Generate.generate_named ~scale:0.005 "fft_a" in
  Alcotest.(check string) "name" "fft_a" inst.Generate.design.Design.name

(* MD5 of the [Io.write_design] output, pinned on the generator as it
   stood before the lowest-frontier index replaced the packer's row scan.
   Any change to the generator must keep every design byte-identical. *)
let pinned_designs =
  let o = Generate.default_options in
  let spec name scale = Spec.scaled scale (Spec.find name) in
  [ (* three failed same-size attempts, then growth *)
    ( "superblue12 0.008", "df09bbef961487ed17f92d4c88991e3e",
      fun () -> Generate.generate (spec "superblue12" 0.008) );
    ( "des_perf_1 0.04", "62027aa6faa83e85a908e140e013ea01",
      fun () -> Generate.generate (spec "des_perf_1" 0.04) );
    (* height-3 and height-4 classes, both rails *)
    ( "fft_2 0.04 tall 0.3", "51db27cf8095df88aaa065f217a53f73",
      fun () ->
        Generate.generate ~options:{ o with tall_cell_fraction = 0.3 }
          (spec "fft_2" 0.04) );
    ( "fft_2 0.04 single height", "eb996fcdb3dad44dc46efcc578e6ae4c",
      fun () ->
        Generate.generate ~options:{ o with single_height_only = true }
          (spec "fft_2" 0.04) );
    (* the masked packer *)
    ( "fft_2 0.04 blockages 0.15", "49eebcf61618090de2b4e0198919cdfd",
      fun () ->
        Generate.generate ~options:{ o with blockage_fraction = 0.15 }
          (spec "fft_2" 0.04) );
    ( "fft_2 0.04 fences 2", "3dd48c158cad202c5beb3a9892bc6780",
      fun () ->
        Generate.generate ~options:{ o with fence_count = 2 }
          (spec "fft_2" 0.04) );
    ( "scenario md3-mix 0.5", "63cd362a41ebbbade19d364040e8f93b",
      fun () -> Scenario.generate ~scale:0.5 Scenario.Md3_mix );
    (* the legalize_large benchmark's design *)
    ( "superblue12 0.2", "9450e85fb8f39d032efef798b5e0d492",
      fun () -> Generate.generate (spec "superblue12" 0.2) ) ]

let test_pinned_design (label, digest, build) () =
  let path = Filename.temp_file "pinned" ".mclh" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_design ~path (build ()).Generate.design;
      Alcotest.(check string) label digest (Digest.to_hex (Digest.file path)))

(* Frontier against the scan it replaced. Each step takes the next cell:
   both pick a span, then the cell is placed either at the pick or, to
   reach cursor states the packer never makes, at a drawn admitting row.
   Narrow chips, widths and gaps of a few sites keep cursors tied; heights
   up to 4 on chips of 1..10 rows include classes that no row admits;
   even heights take either bottom rail, odd heights none. *)
type pack_step = {
  height : int;
  rail : Rail.t option;
  width : int;
  at_pick : bool;
  row : int;
  gap : int;
}

let pack_case_gen =
  let open QCheck.Gen in
  let step =
    map
      (fun (height, vdd, width, (at_pick, row, gap)) ->
        let rail =
          if height mod 2 = 1 then None
          else Some (if vdd then Rail.Vdd else Rail.Vss)
        in
        { height; rail; width; at_pick; row; gap })
      (quad (int_range 1 4) bool
         (int_range 1 8)
         (triple bool (int_range 0 9) (int_range 0 2)))
  in
  quad (oneofl [ Rail.Vss; Rail.Vdd ]) (int_range 1 10) (int_range 1 24)
    (list_size (int_range 1 60) step)

let print_pack_case (base, rows, sites, steps) =
  Printf.sprintf "base %s, %d rows x %d sites: %s" (Rail.to_string base)
    rows sites
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf "h%d %s w%d %s gap %d" s.height
              (Option.fold ~none:"-" ~some:Rail.to_string s.rail)
              s.width
              (if s.at_pick then "pick" else Printf.sprintf "row %d" s.row)
              s.gap)
          steps))

let qc_frontier_matches_scan =
  QCheck.Test.make ~count:500 ~name:"frontier: lowest span equals the row scan"
    (QCheck.make ~print:print_pack_case pack_case_gen)
    (fun (base_rail, num_rows, num_sites, steps) ->
      let chip = Chip.make ~base_rail ~num_rows ~num_sites () in
      let cells =
        Array.of_list
          (List.mapi
             (fun id s ->
               Cell.make ~id ~width:s.width ~height:s.height
                 ?bottom_rail:s.rail ())
             steps)
      in
      let frontier = Frontier.create chip cells in
      let cursor = Array.make num_rows 0 in
      let put (c : Cell.t) r front gap =
        let right = front + c.Cell.width + min gap (num_sites - front - c.Cell.width) in
        Frontier.place frontier c ~row:r ~right;
        Array.fill cursor r c.Cell.height right
      in
      List.for_all2
        (fun s (c : Cell.t) ->
          let r = Frontier.lowest frontier c in
          let pick =
            if r < 0 then None
            else Some (r, Frontier.front frontier ~row:r ~height:s.height)
          in
          pick = Pack_scan.lowest chip cursor c
          && begin
            (if s.at_pick then Option.iter (fun (r, front) -> put c r front s.gap) pick
             else
               let r = s.row mod num_rows in
               if Chip.row_admits chip c r then begin
                 let front = Array.fold_left max 0 (Array.sub cursor r s.height) in
                 if front + c.Cell.width <= num_sites then put c r front s.gap
               end);
            true
          end)
        steps (Array.to_list cells))

let qc_reference_legal_any_seed =
  QCheck.Test.make ~count:15 ~name:"generate: reference legal for any seed"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst =
        Generate.generate
          ~options:{ Generate.default_options with seed }
          (Spec.scaled 0.005 (Spec.find "fft_2"))
      in
      Legality.is_legal inst.Generate.design inst.Generate.reference)

let () =
  Alcotest.run "benchgen"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments ] );
      ( "spec",
        [ Alcotest.test_case "table 1 data" `Quick test_spec_table;
          Alcotest.test_case "scaling" `Quick test_spec_scaled ] );
      ( "generate",
        [ Alcotest.test_case "reference legal" `Quick test_reference_is_legal;
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "density" `Quick test_density_close_to_spec;
          Alcotest.test_case "cell mix" `Quick test_cell_mix;
          Alcotest.test_case "single-height mode" `Quick test_single_height_mode;
          Alcotest.test_case "global in bounds" `Quick test_global_in_bounds;
          Alcotest.test_case "nets local" `Quick test_nets_are_local;
          Alcotest.test_case "generate_named" `Quick test_generate_named ] );
      ( "pinned",
        List.map
          (fun ((label, _, _) as pin) ->
            Alcotest.test_case label `Quick (test_pinned_design pin))
          pinned_designs );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qc_reference_legal_any_seed; qc_frontier_matches_scan ] ) ]
