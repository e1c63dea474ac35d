(* Pins the streaming struct-of-arrays model construction against the
   historical list-based path ([Model_ref.build]): every
   model field must be byte-identical — the ordering groups, which carry
   the constraint matrix, included — on plain, blockage-heavy, and
   tall-cell designs, across domain
   counts. Also asserts the construction's allocation behaviour stays
   linear in the instance size (the list path was O(n log n) minor words
   through [List.sort]) and the counted [Netlist.Builder] agrees with
   [Netlist.make]. *)

open Mclh_core
open Mclh_linalg
open Mclh_circuit

let instance ?(options = Mclh_benchgen.Generate.default_options) ~scale name =
  Mclh_benchgen.Generate.generate ~options
    (Mclh_benchgen.Spec.scaled scale (Mclh_benchgen.Spec.find name))

let blockage_options =
  { Mclh_benchgen.Generate.default_options with
    blockage_fraction = 0.15;
    blockage_count = 24 }

let tall_options =
  { Mclh_benchgen.Generate.default_options with tall_cell_fraction = 0.3 }

let tall_blockage_options =
  { Mclh_benchgen.Generate.default_options with
    tall_cell_fraction = 0.25;
    blockage_fraction = 0.12;
    blockage_count = 16 }

let check_int_array label a b =
  Alcotest.(check (array int)) label a b

let check_float_array label (a : float array) (b : float array) =
  (* bit-exact: the streaming path performs the same arithmetic in the
     same order as the reference, so not even reassociation noise is
     allowed here *)
  Alcotest.(check int) (label ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
      then
        Alcotest.failf "%s: index %d differs (%h vs %h)" label i x b.(i))
    a

let check_model_equal label (a : Model.t) (b : Model.t) =
  Alcotest.(check int) (label ^ " nvars") a.Model.nvars b.Model.nvars;
  check_int_array (label ^ " first_var") a.Model.first_var b.Model.first_var;
  check_int_array (label ^ " var_cell") a.Model.var_cell b.Model.var_cell;
  check_int_array (label ^ " var_row") a.Model.var_row b.Model.var_row;
  Alcotest.(check int)
    (label ^ " num groups")
    (Array.length a.Model.row_vars)
    (Array.length b.Model.row_vars);
  Array.iteri
    (fun g ga -> check_int_array (Printf.sprintf "%s group %d" label g) ga b.Model.row_vars.(g))
    a.Model.row_vars;
  check_float_array (label ^ " shift") a.Model.shift b.Model.shift;
  check_float_array (label ^ " b_rhs") a.Model.b_rhs b.Model.b_rhs;
  check_float_array (label ^ " p") a.Model.p b.Model.p;
  Alcotest.(check int)
    (label ^ " num chains")
    (Blocks.num_chains a.Model.blocks)
    (Blocks.num_chains b.Model.blocks);
  for c = 0 to Blocks.num_chains a.Model.blocks - 1 do
    check_int_array
      (Printf.sprintf "%s chain %d" label c)
      (Blocks.chain_vars a.Model.blocks c)
      (Blocks.chain_vars b.Model.blocks c)
  done

let cases =
  [ ("plain", Mclh_benchgen.Generate.default_options, "fft_2", 0.03);
    ("blockages", blockage_options, "fft_2", 0.03);
    ("tall", tall_options, "fft_2", 0.03);
    ("tall+blockages", tall_blockage_options, "pci_bridge32_a", 0.03) ]

let test_streaming_matches_reference () =
  List.iter
    (fun (label, options, name, scale) ->
      let d = (instance ~options ~scale name).Mclh_benchgen.Generate.design in
      let assignment = Row_assign.assign d in
      let reference = Model_ref.build d assignment in
      let streaming = Model.build d assignment in
      check_model_equal (label ^ "/seq") streaming reference;
      let parallel = Model.build ~num_domains:4 d assignment in
      check_model_equal (label ^ "/par") parallel reference)
    cases

(* The variable numbering: ids run row by row through the ordering
   groups, so each group is an ascending run of consecutive ids, the
   groups tile [0, nvars) in order and every ordering constraint couples
   [v] and [v + 1]. The per-cell tables and the chains must agree with
   it: [first_var] is a cell's bottom-row (hub) subcell, and each
   multi-row cell's chain, in cell order, lists its subcells up the
   rows. *)
let test_row_ordered_numbering () =
  List.iter
    (fun (label, options, name, scale) ->
      let d = (instance ~options ~scale name).Mclh_benchgen.Generate.design in
      let assignment = Row_assign.assign d in
      let rows = assignment.Row_assign.rows in
      let m = Model.build d assignment in
      let fail fmt = Printf.ksprintf (fun s -> Alcotest.fail (label ^ ": " ^ s)) fmt in
      let next = ref 0 in
      Array.iteri
        (fun g vars ->
          Array.iter
            (fun v ->
              if v <> !next then fail "group %d holds %d where %d is next" g v !next;
              incr next)
            vars)
        m.Model.row_vars;
      Alcotest.(check int) (label ^ ": groups tile [0, nvars)") m.Model.nvars !next;
      let b = Model.b_matrix m in
      for i = 0 to Csr.rows b - 1 do
        match Csr.row_entries b i with
        | [ (u, -1.0); (v, 1.0) ] when v = u + 1 -> ()
        | _ -> fail "B row %d is not (v, v + 1)" i
      done;
      Array.iteri
        (fun v c ->
          let k = m.Model.var_row.(v) - rows.(c) in
          if k < 0 || k >= d.Design.cells.(c).Cell.height then
            fail "variable %d: row %d outside cell %d" v m.Model.var_row.(v) c)
        m.Model.var_cell;
      let chain = ref 0 in
      Array.iteri
        (fun c (cell : Cell.t) ->
          let fv = m.Model.first_var.(c) in
          if m.Model.var_cell.(fv) <> c || m.Model.var_row.(fv) <> rows.(c) then
            fail "first_var of cell %d is not its bottom-row subcell" c;
          if cell.Cell.height >= 2 then begin
            let vars = Blocks.chain_vars m.Model.blocks !chain in
            Alcotest.(check int)
              (Printf.sprintf "%s: chain %d length" label !chain)
              cell.Cell.height (Array.length vars);
            Array.iteri
              (fun k v ->
                if m.Model.var_cell.(v) <> c || m.Model.var_row.(v) <> rows.(c) + k
                then fail "chain %d entry %d is not cell %d in row %d" !chain k c
                       (rows.(c) + k))
              vars;
            incr chain
          end)
        d.Design.cells;
      Alcotest.(check int) (label ^ ": one chain per multi-row cell") !chain
        (Blocks.num_chains m.Model.blocks))
    cases

(* The streaming build must stay O(n) in minor-heap allocation: growing
   the instance ~4x may grow allocation by the same factor but not by an
   extra log term (the historical path's List.sort of every row). The
   bound is deliberately loose (fixed overheads shrink the ratio, a log
   factor at this size would add ~20%+ on top of linear). *)
let test_build_allocation_linear () =
  let build_minor_words ~scale =
    let d =
      (instance ~options:blockage_options ~scale "fft_2")
        .Mclh_benchgen.Generate.design
    in
    let assignment = Row_assign.assign d in
    let model0 = Model.build d assignment in
    ignore (Sys.opaque_identity model0.Model.nvars);
    let w0 = Gc.minor_words () in
    let model = Model.build d assignment in
    let w1 = Gc.minor_words () in
    (model.Model.nvars, w1 -. w0)
  in
  let n_small, w_small = build_minor_words ~scale:0.05 in
  let n_big, w_big = build_minor_words ~scale:0.2 in
  let var_ratio = float_of_int n_big /. float_of_int n_small in
  let alloc_ratio = w_big /. w_small in
  Alcotest.(check bool)
    (Printf.sprintf "instance actually grew (%d -> %d vars)" n_small n_big)
    true
    (var_ratio > 2.0);
  Alcotest.(check bool)
    (Printf.sprintf
       "allocation stays linear (vars x%.2f, minor words x%.2f)" var_ratio
       alloc_ratio)
    true
    (alloc_ratio < var_ratio *. 1.6)

let test_netlist_builder () =
  let d = (instance ~scale:0.02 "fft_2").Mclh_benchgen.Generate.design in
  let nets = d.Design.nets in
  let n = Netlist.num_cells nets in
  (* rebuild through the builder with an exact count, then with a wrong
     estimate: both must reproduce the netlist *)
  List.iter
    (fun expected_nets ->
      let b = Netlist.Builder.create ~num_cells:n ~expected_nets in
      Netlist.iter nets (fun _ net -> Netlist.Builder.add_net b net);
      Alcotest.(check int) "length" (Netlist.num_nets nets)
        (Netlist.Builder.length b);
      let rebuilt = Netlist.Builder.build b in
      Alcotest.(check int) "num_nets" (Netlist.num_nets nets)
        (Netlist.num_nets rebuilt);
      Alcotest.(check int) "num_pins" (Netlist.num_pins nets)
        (Netlist.num_pins rebuilt);
      Netlist.iter nets (fun i net ->
          if Netlist.net rebuilt i <> net then
            Alcotest.failf "net %d differs" i))
    [ Netlist.num_nets nets; 1; 7 ];
  (* validation matches Netlist.make *)
  let b = Netlist.Builder.create ~num_cells:2 ~expected_nets:1 in
  Alcotest.check_raises "empty net rejected"
    (Invalid_argument "Netlist.Builder.add_net: net 0 has no pin") (fun () ->
      Netlist.Builder.add_net b [||]);
  Alcotest.check_raises "out-of-range pin rejected"
    (Invalid_argument "Netlist.Builder.add_net: net 0 pins missing cell 5")
    (fun () ->
      Netlist.Builder.add_net b [| { Netlist.cell = 5; dx = 0.0; dy = 0.0 } |])

let () =
  Alcotest.run "soa"
    [ ( "construction",
        [ Alcotest.test_case "streaming matches reference oracle" `Quick
            test_streaming_matches_reference;
          Alcotest.test_case "build allocation is linear" `Quick
            test_build_allocation_linear;
          Alcotest.test_case "row-ordered numbering" `Quick
            test_row_ordered_numbering ] );
      ( "netlist",
        [ Alcotest.test_case "builder agrees with make" `Quick
            test_netlist_builder ] ) ]
