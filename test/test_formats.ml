(* Tests for serialization (native format and Bookshelf) and the density
   analysis module. *)

open Mclh_circuit
open Mclh_benchgen

let tmp suffix = Filename.temp_file "mclh_fmt" suffix

let gen ?(options = Generate.default_options) name scale =
  (Generate.generate ~options (Spec.scaled scale (Spec.find name))).Generate.design

(* ---------- native Io ---------- *)

let test_io_roundtrip () =
  let d = gen "fft_2" 0.005 in
  let path = tmp ".mclh" in
  Io.write_design ~path d;
  let d2 = Io.read_design ~path in
  Sys.remove path;
  Alcotest.(check string) "name" d.Design.name d2.Design.name;
  Alcotest.(check int) "cells" (Design.num_cells d) (Design.num_cells d2);
  Alcotest.(check bool) "placement" true (Placement.equal d.Design.global d2.Design.global);
  Alcotest.(check int) "nets" (Netlist.num_nets d.Design.nets) (Netlist.num_nets d2.Design.nets);
  Alcotest.(check (float 1e-9)) "row height" d.Design.chip.Chip.row_height
    d2.Design.chip.Chip.row_height;
  (* cell metadata *)
  Array.iteri
    (fun i (c : Cell.t) ->
      let c2 = d2.Design.cells.(i) in
      if c.Cell.width <> c2.Cell.width || c.Cell.height <> c2.Cell.height
         || c.Cell.bottom_rail <> c2.Cell.bottom_rail
      then Alcotest.failf "cell %d differs" i)
    d.Design.cells

let test_io_placement_roundtrip () =
  let pl = Placement.make ~xs:[| 1.5; 2.25; 100.0 |] ~ys:[| 0.0; 3.0; 7.0 |] in
  let path = tmp ".pl" in
  Io.write_placement ~path pl;
  let pl2 = Io.read_placement ~path in
  Sys.remove path;
  Alcotest.(check bool) "exact" true (Placement.equal pl pl2)

let test_io_rejects_garbage () =
  let path = tmp ".mclh" in
  let oc = open_out path in
  output_string oc "not a design\n";
  close_out oc;
  Alcotest.(check bool) "bad magic" true
    (try
       ignore (Io.read_design ~path);
       false
     with Failure _ -> true);
  Sys.remove path

(* ---------- Bookshelf ---------- *)

let bookshelf_roundtrip d =
  let base = Filename.temp_file "mclh_bs" "" in
  Sys.remove base;
  Bookshelf.write ~basename:base d;
  let d2 = Bookshelf.read ~aux:(base ^ ".aux") in
  List.iter
    (fun ext -> try Sys.remove (base ^ ext) with Sys_error _ -> ())
    [ ".aux"; ".nodes"; ".nets"; ".wts"; ".pl"; ".scl" ];
  d2

let test_bookshelf_roundtrip () =
  let d = gen "fft_2" 0.005 in
  let d2 = bookshelf_roundtrip d in
  Alcotest.(check int) "cells" (Design.num_cells d) (Design.num_cells d2);
  Alcotest.(check bool) "placement" true
    (Placement.equal ~eps:1e-6 d.Design.global d2.Design.global);
  Alcotest.(check int) "rows" d.Design.chip.Chip.num_rows d2.Design.chip.Chip.num_rows;
  Alcotest.(check int) "sites" d.Design.chip.Chip.num_sites d2.Design.chip.Chip.num_sites;
  (* wirelength survives the center-offset conversion up to the 9
     significant digits the text format carries per pin *)
  let rh = d.Design.chip.Chip.row_height in
  let h1 = Hpwl.total ~row_height:rh d.Design.nets d.Design.global in
  let h2 = Hpwl.total ~row_height:rh d2.Design.nets d2.Design.global in
  if Float.abs (h1 -. h2) > 1e-7 *. Float.max 1.0 h1 then
    Alcotest.failf "hpwl drifted: %.9f vs %.9f" h1 h2

let test_bookshelf_blockages () =
  let options = { Generate.default_options with blockage_fraction = 0.15 } in
  let d = gen ~options "fft_a" 0.005 in
  let d2 = bookshelf_roundtrip d in
  Alcotest.(check int) "blockages preserved"
    (Array.length d.Design.blockages)
    (Array.length d2.Design.blockages);
  Alcotest.(check int) "capacity preserved" (Design.free_capacity d)
    (Design.free_capacity d2);
  (* the re-read design still legalizes *)
  let legal = Mclh_core.Flow.legalize d2 in
  Alcotest.(check bool) "legalizes" true (Legality.is_legal d2 legal)

let test_bookshelf_heights () =
  let options = { Generate.default_options with tall_cell_fraction = 0.5 } in
  let d = gen ~options "fft_2" 0.005 in
  let d2 = bookshelf_roundtrip d in
  Alcotest.(check (list (pair int int))) "height histogram"
    (Design.count_by_height d) (Design.count_by_height d2)

let test_bookshelf_rejects_nonuniform_rows () =
  let base = Filename.temp_file "mclh_bs" "" in
  Sys.remove base;
  let d = gen "fft_a" 0.003 in
  Bookshelf.write ~basename:base d;
  (* corrupt the scl: change one row height *)
  let scl = base ^ ".scl" in
  let content = In_channel.with_open_text scl In_channel.input_all in
  let corrupted =
    Str.global_substitute (Str.regexp_string "Height        : 8")
      (let first = ref true in
       fun _ ->
         if !first then begin
           first := false;
           "Height        : 9"
         end
         else "Height        : 8")
      content
  in
  Out_channel.with_open_text scl (fun oc -> output_string oc corrupted);
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Bookshelf.read ~aux:(base ^ ".aux"));
       false
     with Failure _ -> true);
  List.iter
    (fun ext -> try Sys.remove (base ^ ext) with Sys_error _ -> ())
    [ ".aux"; ".nodes"; ".nets"; ".wts"; ".pl"; ".scl" ]

(* ---------- Density ---------- *)

let micro_design () =
  (* 4 rows x 16 sites, two cells in the left half *)
  let chip = Chip.make ~num_rows:4 ~num_sites:16 () in
  let cells =
    [| Cell.make ~id:0 ~width:4 ~height:1 ();
       Cell.make ~id:1 ~width:4 ~height:2 ~bottom_rail:Rail.Vss () |]
  in
  Design.make ~name:"micro" ~chip ~cells
    ~global:(Placement.make ~xs:[| 0.0; 0.0 |] ~ys:[| 1.0; 2.0 |])
    ~nets:(Netlist.empty ~num_cells:2)
    ()

let test_density_map () =
  let d = micro_design () in
  let m = Density.map ~bins_x:2 ~bins_y:1 d d.Design.global in
  (* left bin (8x4 = 32 sites) holds 4 + 8 = 12 area -> 0.375 *)
  Alcotest.(check (float 1e-9)) "left bin" 0.375 (Density.get m 0 0);
  Alcotest.(check (float 1e-9)) "right bin" 0.0 (Density.get m 1 0);
  let o = Density.overflow m in
  Alcotest.(check (float 1e-9)) "max" 0.375 o.Density.max_utilization;
  Alcotest.(check int) "no overflow" 0 o.Density.overflowed_bins

let test_density_blockage_reduces_free () =
  let chip = Chip.make ~num_rows:2 ~num_sites:8 () in
  let cells = [| Cell.make ~id:0 ~width:4 ~height:1 () |] in
  let blockages = [| Blockage.make ~row:0 ~height:2 ~x:4 ~width:4 |] in
  let d =
    Design.make ~blockages ~name:"b" ~chip ~cells
      ~global:(Placement.make ~xs:[| 0.0 |] ~ys:[| 0.0 |])
      ~nets:(Netlist.empty ~num_cells:1)
      ()
  in
  let m = Density.map ~bins_x:1 ~bins_y:1 d d.Design.global in
  (* free area = 16 - 8 = 8; used = 4 -> 0.5 *)
  Alcotest.(check (float 1e-9)) "blockage-adjusted" 0.5 (Density.get m 0 0)

let test_density_overflow_detection () =
  (* two cells stacked on the same spot: utilization 2.0 in that bin *)
  let chip = Chip.make ~num_rows:2 ~num_sites:8 () in
  let cells =
    [| Cell.make ~id:0 ~width:8 ~height:1 (); Cell.make ~id:1 ~width:8 ~height:1 () |]
  in
  let d =
    Design.make ~name:"o" ~chip ~cells
      ~global:(Placement.make ~xs:[| 0.0; 0.0 |] ~ys:[| 0.0; 0.0 |])
      ~nets:(Netlist.empty ~num_cells:2)
      ()
  in
  let m = Density.map ~bins_x:1 ~bins_y:2 d d.Design.global in
  Alcotest.(check (float 1e-9)) "overloaded bin" 2.0 (Density.get m 0 0);
  let o = Density.overflow m in
  Alcotest.(check int) "one overflowed" 1 o.Density.overflowed_bins;
  Alcotest.(check bool) "ratio positive" true (o.Density.overflow_ratio > 0.0)

let test_overflow_one_definition () =
  (* 2x2 bins of 8 sites x 4 rows (area 32); the lower-left bin is half
     blocked. It holds 24 cell area against a capacity of 16; the
     lower-right bin holds 16 of 32. Cell area above capacity over total
     cell area: 8 / 40. (Summing per-bin utilization excess instead gives
     0.5 / 2.0 here.) *)
  let chip = Chip.make ~num_rows:8 ~num_sites:16 () in
  let left = List.init 6 (fun k -> (4, 4.0, float_of_int (k mod 4))) in
  let right = [ (8, 8.0, 0.0); (8, 8.0, 1.0) ] in
  let spots = Array.of_list (left @ right) in
  let n = Array.length spots in
  let cells = Array.mapi (fun id (width, _, _) -> Cell.make ~id ~width ~height:1 ()) spots in
  let d =
    Design.make ~name:"ov" ~chip ~cells
      ~blockages:[| Blockage.make ~row:0 ~height:4 ~x:0 ~width:4 |]
      ~global:
        (Placement.make
           ~xs:(Array.map (fun (_, x, _) -> x) spots)
           ~ys:(Array.map (fun (_, _, y) -> y) spots))
      ~nets:(Netlist.empty ~num_cells:n)
      ()
  in
  let stats = Density.overflow (Density.map ~bins_x:2 ~bins_y:2 d d.Design.global) in
  Alcotest.(check (float 1e-12)) "stats ratio" 0.2 stats.Density.overflow_ratio;
  Alcotest.(check int) "one bin over capacity" 1 stats.Density.overflowed_bins;
  (* the global placer's stopping rule, on its own grid of the same bins *)
  let gp = Mclh_gp.Density.create ~grid:2 d in
  Mclh_gp.Density.accumulate gp d d.Design.global;
  Alcotest.(check (float 1e-12)) "gp ratio" 0.2 (Mclh_gp.Density.overflow gp)

let test_row_utilization () =
  let d = micro_design () in
  let rows = Density.row_utilization d d.Design.global in
  Alcotest.(check (array (float 1e-9))) "rows"
    [| 0.0; 0.25; 0.25; 0.25 |] rows

let test_density_fractional_positions () =
  (* area spread across a bin boundary is split proportionally *)
  let chip = Chip.make ~num_rows:1 ~num_sites:8 () in
  let cells = [| Cell.make ~id:0 ~width:4 ~height:1 () |] in
  let d =
    Design.make ~name:"f" ~chip ~cells
      ~global:(Placement.make ~xs:[| 2.0 |] ~ys:[| 0.0 |])
      ~nets:(Netlist.empty ~num_cells:1)
      ()
  in
  let m = Density.map ~bins_x:2 ~bins_y:1 d d.Design.global in
  (* cell [2, 6): 2 sites in each 4-site bin -> 0.5 each *)
  Alcotest.(check (float 1e-9)) "left" 0.5 (Density.get m 0 0);
  Alcotest.(check (float 1e-9)) "right" 0.5 (Density.get m 1 0)

let test_legal_placement_never_overflows () =
  let d = gen "des_perf_1" 0.008 in
  let legal = Mclh_core.Flow.legalize d in
  let m = Density.map d legal in
  let o = Density.overflow ~limit:1.0000001 m in
  Alcotest.(check int)
    (Printf.sprintf "legal placement has no >100%% bins (max %.4f)"
       o.Density.max_utilization)
    0 o.Density.overflowed_bins

let qc_bookshelf_roundtrip =
  QCheck.Test.make ~count:10 ~name:"bookshelf: roundtrip any instance"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let options =
        { Generate.default_options with
          seed;
          blockage_fraction = (if seed mod 2 = 0 then 0.1 else 0.0);
          tall_cell_fraction = (if seed mod 3 = 0 then 0.3 else 0.0) }
      in
      let d = gen ~options "fft_2" 0.003 in
      let d2 = bookshelf_roundtrip d in
      Placement.equal ~eps:1e-6 d.Design.global d2.Design.global
      && Design.count_by_height d = Design.count_by_height d2)

let () =
  Alcotest.run "formats"
    [ ( "native io",
        [ Alcotest.test_case "design roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "placement roundtrip" `Quick test_io_placement_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage ] );
      ( "bookshelf",
        [ Alcotest.test_case "roundtrip" `Quick test_bookshelf_roundtrip;
          Alcotest.test_case "blockages as terminals" `Quick test_bookshelf_blockages;
          Alcotest.test_case "height histogram" `Quick test_bookshelf_heights;
          Alcotest.test_case "rejects non-uniform rows" `Quick
            test_bookshelf_rejects_nonuniform_rows ] );
      ( "density",
        [ Alcotest.test_case "map" `Quick test_density_map;
          Alcotest.test_case "blockage-adjusted" `Quick test_density_blockage_reduces_free;
          Alcotest.test_case "overflow detection" `Quick test_density_overflow_detection;
          Alcotest.test_case "one overflow definition" `Quick
            test_overflow_one_definition;
          Alcotest.test_case "row utilization" `Quick test_row_utilization;
          Alcotest.test_case "fractional spread" `Quick test_density_fractional_positions;
          Alcotest.test_case "legal never overflows" `Quick
            test_legal_placement_never_overflows ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qc_bookshelf_roundtrip ] ) ]
