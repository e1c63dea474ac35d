(* Tests for the incremental ECO re-legalization engine: edit-file
   round-trips, per-cell row re-assignment, end-state equivalence with a
   cold full run at tight tolerance, cache behaviour (empty batch, A/B/A
   revert, insert/delete round-trip), dirty-set locality, observability
   counters, and the Solver ?s0 warm-restart path. *)

open Mclh_core
open Mclh_circuit
module Edit = Mclh_incr.Edit
module Incr = Mclh_incr.Incr

let instance ?(options = Mclh_benchgen.Generate.default_options) ~scale name =
  Mclh_benchgen.Generate.generate ~options
    (Mclh_benchgen.Spec.scaled scale (Mclh_benchgen.Spec.find name))

(* blockage cuts keep components small, the regime the engine targets *)
let eco_options =
  { Mclh_benchgen.Generate.default_options with
    blockage_fraction = 0.15;
    blockage_count = 24 }

let eco_design ~scale =
  (instance ~options:eco_options ~scale "fft_2").Mclh_benchgen.Generate.design

(* tight tolerance so incremental-vs-cold agreement is meaningful *)
let tight = { Config.default with eps = 1e-10 }

let max_position_diff (a : Placement.t) (b : Placement.t) =
  let n = Placement.num_cells a in
  Alcotest.(check int) "same cell count" n (Placement.num_cells b);
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let xa, ya = Placement.get a i and xb, yb = Placement.get b i in
    worst := Float.max !worst (Float.abs (xa -. xb));
    worst := Float.max !worst (Float.abs (ya -. yb))
  done;
  !worst

(* ---------- edit file format ---------- *)

let test_edit_roundtrip () =
  let batches =
    [ [ Edit.Move { cell = 3; x = 10.5; y = 2.0 };
        Edit.Resize { cell = 1; width = 7 };
        Edit.Insert { width = 4; height = 2; x = 20.0; y = 1.5 } ];
      [ Edit.Delete { cell = 0 } ] ]
  in
  let path = Filename.temp_file "mclh_edits" ".mclh" in
  Edit.write_file ~path batches;
  let back = Edit.read_file ~path in
  Sys.remove path;
  Alcotest.(check bool) "round-trip" true (batches = back)

let test_edit_parse_errors () =
  let fails text =
    match Edit.parse_batches text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error msg -> Alcotest.(check bool) "message nonempty" true (msg <> "")
  in
  fails "move 1 2 3\n";
  (* no header *)
  fails "mclh-edits 1\nmove 1 two 3\n";
  fails "mclh-edits 1\nteleport 1 2 3\n";
  fails "mclh-edits 1\nmove 1 2\n";
  (match Edit.parse_batches "mclh-edits 1\n# comment\n\nmove 1 2 3\nbatch\n" with
  | Ok [ [ Edit.Move _ ] ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error msg -> Alcotest.fail msg)

(* ---------- per-cell row assignment ---------- *)

let test_assign_cell_matches_assign () =
  let d = eco_design ~scale:0.01 in
  let full = Row_assign.assign d in
  for i = 0 to Design.num_cells d - 1 do
    Alcotest.(check int)
      (Printf.sprintf "cell %d row" i)
      full.Row_assign.rows.(i) (Row_assign.assign_cell d i)
  done;
  Alcotest.(check (float 1e-9)) "y_displacement"
    full.Row_assign.y_displacement
    (Row_assign.y_displacement d full.Row_assign.rows)

(* ---------- session behaviour ---------- *)

let test_empty_batch_all_hits () =
  let t = Incr.create ~config:tight (eco_design ~scale:0.01) in
  let before = Incr.legal t in
  let st = Incr.apply t [] in
  Alcotest.(check int) "no dirty shards" 0 st.Incr.dirty_shards;
  Alcotest.(check int) "all hits" st.Incr.shards st.Incr.cache_hits;
  Alcotest.(check int) "no touched cells" 0 st.Incr.touched_cells;
  Alcotest.(check (float 0.0)) "placement unchanged" 0.0
    (max_position_diff before (Incr.legal t))

let mixed_batch (d : Design.t) seed =
  let rng = Mclh_benchgen.Rng.create seed in
  let n = Design.num_cells d in
  let chip = d.Design.chip in
  let move _ =
    let c = Mclh_benchgen.Rng.int rng n in
    let x = Mclh_benchgen.Rng.float rng (float_of_int chip.Chip.num_sites) in
    let y = Mclh_benchgen.Rng.float rng (float_of_int chip.Chip.num_rows) in
    Edit.Move { cell = c; x; y }
  in
  List.init 5 move
  @ [ Edit.Resize
        { cell = Mclh_benchgen.Rng.int rng n;
          width = 1 + Mclh_benchgen.Rng.int rng 8 };
      Edit.Insert
        { width = 3;
          height = 1;
          x = Mclh_benchgen.Rng.float rng (float_of_int chip.Chip.num_sites);
          y = Mclh_benchgen.Rng.float rng (float_of_int chip.Chip.num_rows) };
      Edit.Delete { cell = Mclh_benchgen.Rng.int rng n } ]

let test_equivalence_with_cold_run () =
  let t = Incr.create ~config:tight (eco_design ~scale:0.01) in
  for batch = 1 to 3 do
    let st = Incr.apply t (mixed_batch (Incr.design t) (100 + batch)) in
    Alcotest.(check bool) "converged" true st.Incr.converged;
    let d' = Incr.design t in
    let cold = Flow.run ~config:tight d' in
    let diff = max_position_diff (Incr.legal t) cold.Flow.legal in
    if diff > 1e-9 then
      Alcotest.failf "batch %d: incremental differs from cold run by %g"
        batch diff;
    Alcotest.(check bool)
      (Printf.sprintf "batch %d legal" batch)
      true
      (Legality.is_legal d' (Incr.legal t))
  done

let test_dirty_set_is_local () =
  let t = Incr.create ~config:tight (eco_design ~scale:0.01) in
  let d = Incr.design t in
  let x0, y0 = Placement.get d.Design.global 0 in
  let st = Incr.apply t [ Edit.Move { cell = 0; x = x0 +. 3.0; y = y0 } ] in
  Alcotest.(check bool) "many shards" true (st.Incr.shards > 8);
  Alcotest.(check bool) "at least one dirty" true (st.Incr.dirty_shards >= 1);
  Alcotest.(check bool) "dirty set is a small fraction" true
    (st.Incr.dirty_shards * 4 <= st.Incr.shards);
  Alcotest.(check int) "hits + dirty = shards" st.Incr.shards
    (st.Incr.cache_hits + st.Incr.dirty_shards);
  Alcotest.(check bool) "dirty components counted" true
    (st.Incr.dirty_components >= 1)

let test_revert_rehits_cache () =
  let t = Incr.create ~config:tight (eco_design ~scale:0.01) in
  let initial = Incr.legal t in
  let d = Incr.design t in
  let x0, y0 = Placement.get d.Design.global 5 in
  let st1 = Incr.apply t [ Edit.Move { cell = 5; x = x0 +. 10.0; y = y0 } ] in
  Alcotest.(check bool) "first move re-solves" true (st1.Incr.dirty_shards >= 1);
  (* moving the cell back restores the exact original sub-LCPs, whose
     solutions are still cached: the revert batch must be solve-free *)
  let st2 = Incr.apply t [ Edit.Move { cell = 5; x = x0; y = y0 } ] in
  Alcotest.(check int) "revert is all cache hits" 0 st2.Incr.dirty_shards;
  Alcotest.(check (float 0.0)) "revert restores the placement" 0.0
    (max_position_diff initial (Incr.legal t))

let test_insert_delete_roundtrip () =
  let t = Incr.create ~config:tight (eco_design ~scale:0.01) in
  let initial = Incr.legal t in
  let n = Design.num_cells (Incr.design t) in
  let _ =
    Incr.apply t [ Edit.Insert { width = 5; height = 1; x = 30.0; y = 2.2 } ]
  in
  Alcotest.(check int) "inserted at the end" (n + 1)
    (Design.num_cells (Incr.design t));
  let _ = Incr.apply t [ Edit.Delete { cell = n } ] in
  Alcotest.(check int) "back to original count" n
    (Design.num_cells (Incr.design t));
  Alcotest.(check (float 0.0)) "round-trip restores the placement" 0.0
    (max_position_diff initial (Incr.legal t))

let test_bad_edits_raise () =
  let t = Incr.create ~config:tight (eco_design ~scale:0.01) in
  let n = Design.num_cells (Incr.design t) in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "out of range" (fun () ->
      Incr.apply t [ Edit.Move { cell = n; x = 1.0; y = 1.0 } ]);
  raises "negative id" (fun () -> Incr.apply t [ Edit.Delete { cell = -1 } ]);
  raises "edit after delete" (fun () ->
      Incr.apply t
        [ Edit.Delete { cell = 0 }; Edit.Move { cell = 0; x = 1.0; y = 1.0 } ]);
  raises "zero width" (fun () ->
      Incr.apply t [ Edit.Resize { cell = 0; width = 0 } ])

(* a NaN or infinite coordinate in a move or an insert raises before the
   session changes: the design (not a copy), the placement and the batch
   count stay as they were *)
let non_finite_cases =
  let t = lazy (Incr.create ~config:tight (eco_design ~scale:0.01)) in
  List.concat_map
    (fun (vname, v) ->
      List.concat_map
        (fun axis ->
          List.map
            (fun kind ->
              let name = Printf.sprintf "%s %s = %s" kind axis vname in
              let x, y = if axis = "x" then (v, 2.0) else (10.0, v) in
              let edit =
                if kind = "move" then Edit.Move { cell = 3; x; y }
                else Edit.Insert { width = 3; height = 1; x; y }
              in
              Alcotest.test_case name `Quick (fun () ->
                  let t = Lazy.force t in
                  let design = Incr.design t and legal = Incr.legal t in
                  let batches = Incr.num_batches t in
                  (match Incr.apply t [ edit ] with
                  | exception Invalid_argument _ -> ()
                  | _ -> Alcotest.failf "%s: expected Invalid_argument" name);
                  Alcotest.(check bool) "design unchanged" true
                    (Incr.design t == design);
                  Alcotest.(check (float 0.0)) "placement unchanged" 0.0
                    (max_position_diff legal (Incr.legal t));
                  Alcotest.(check int) "no batch counted" batches
                    (Incr.num_batches t)))
            [ "move"; "insert" ])
        [ "x"; "y" ])
    [ ("nan", Float.nan); ("+inf", Float.infinity); ("-inf", Float.neg_infinity) ]

let test_obs_counters () =
  let obs = Mclh_obs.Obs.create () in
  let t = Incr.create ~config:tight ~obs (eco_design ~scale:0.01) in
  let d = Incr.design t in
  let x0, y0 = Placement.get d.Design.global 1 in
  let st = Incr.apply t [ Edit.Move { cell = 1; x = x0 +. 5.0; y = y0 } ] in
  let c name = Mclh_obs.Obs.counter_value obs name in
  Alcotest.(check int) "batches" 1 (c "incr/batches");
  Alcotest.(check int) "edits" 1 (c "incr/edits");
  Alcotest.(check int) "cache hits" st.Incr.cache_hits (c "incr/cache_hits");
  Alcotest.(check int) "dirty shards" st.Incr.dirty_shards
    (c "incr/dirty_shards");
  Alcotest.(check int) "dirty components" st.Incr.dirty_components
    (c "incr/dirty_components");
  Alcotest.(check bool) "a warm-start trace was attached" true
    (List.exists
       (fun (name, _) ->
         String.length name >= 10 && String.sub name 0 10 = "incr/solve")
       (Mclh_obs.Obs.traces obs))

(* A long-lived session records a fixed set of names: the re-solved
   shards of every batch append to one session trace instead of
   attaching a trace (and counters) of their own. *)
let test_obs_names_bounded () =
  let obs = Mclh_obs.Obs.create () in
  let t = Incr.create ~obs (eco_design ~scale:0.01) in
  let n = Design.num_cells (Incr.design t) in
  let batch k =
    let cell = k * 37 mod n in
    let x, y = Placement.get (Incr.design t).Design.global cell in
    let st = Incr.apply t [ Edit.Move { cell; x = x +. 3.0; y } ] in
    Alcotest.(check bool)
      (Printf.sprintf "batch %d re-solves a shard" k)
      true (st.Incr.dirty_shards > 0)
  in
  let names () =
    ( List.length (Mclh_obs.Obs.traces obs),
      List.length (Mclh_obs.Obs.counters obs) )
  in
  let recorded () =
    Option.fold ~none:0 ~some:Mclh_obs.Trace.recorded
      (Mclh_obs.Obs.find_trace obs "incr/solve/delta_inf")
  in
  batch 0;
  let traces1, counters1 = names () and recorded1 = recorded () in
  for k = 1 to 29 do
    batch k
  done;
  let traces30, counters30 = names () in
  Alcotest.(check int) "trace names after 30 batches = after 1" traces1 traces30;
  Alcotest.(check int) "counter names after 30 batches = after 1" counters1
    counters30;
  Alcotest.(check int) "30 batches counted" 30
    (Mclh_obs.Obs.counter_value obs "incr/batches");
  Alcotest.(check bool) "batch 1 records into the session trace" true
    (recorded1 > 0);
  Alcotest.(check bool) "later batches append to the session trace" true
    (recorded () > recorded1)

(* ---------- pinned replay ---------- *)

(* a seeded batch of every edit kind: three moves near the cell's
   position, a resize, then an insert, a delete or nothing in turn, so
   the replay runs both the patch and the renumbering path *)
let replay_batch rng (d : Design.t) k =
  let module Rng = Mclh_benchgen.Rng in
  let n = Design.num_cells d in
  let g = d.Design.global and chip = d.Design.chip in
  let sites = float_of_int chip.Chip.num_sites
  and rows = float_of_int chip.Chip.num_rows in
  let clamp hi v = Float.min hi (Float.max 0.0 v) in
  let move _ =
    let cell = Rng.int rng n in
    let x =
      clamp (sites -. 1.0) (g.Placement.xs.(cell) +. (6.0 *. Rng.gaussian rng))
    in
    let y = clamp (rows -. 1.0) (g.Placement.ys.(cell) +. Rng.gaussian rng) in
    Edit.Move { cell; x; y }
  in
  let moves = List.init 3 move in
  let cell = Rng.int rng n in
  let resize = Edit.Resize { cell; width = 1 + Rng.int rng 6 } in
  let extra =
    match k mod 3 with
    | 0 ->
      let width = 2 + Rng.int rng 4 in
      let height = 1 + Rng.int rng 2 in
      let x = Rng.float rng (sites -. 6.0) in
      let y = Rng.float rng (rows -. 2.0) in
      [ Edit.Insert { width; height; x; y } ]
    | 1 -> [ Edit.Delete { cell = Rng.int rng n } ]
    | _ -> []
  in
  moves @ (resize :: extra)

(* MD5 of the [Io.write_placement] output after a seeded 30-batch replay
   of every edit kind on fft_2 at 0.04 with 15% blockage in 32
   rectangles, and the MMSIM iterations summed over the batches, pinned
   on the engine as it stood before the warm start was carried by index
   and move/resize batches patched the design. An output-neutral change
   to the session keeps both, at any domain count. *)
let test_pinned_replay () =
  let options = { eco_options with blockage_count = 32 } in
  let t = Incr.create (instance ~options ~scale:0.04 "fft_2").Mclh_benchgen.Generate.design in
  let rng = Mclh_benchgen.Rng.create 2024 in
  let iterations = ref 0 in
  for k = 0 to 29 do
    let st = Incr.apply t (replay_batch rng (Incr.design t) k) in
    iterations := !iterations + st.Incr.solve_iterations
  done;
  let path = Filename.temp_file "pinned" ".pl.mclh" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_placement ~path (Incr.legal t);
      Alcotest.(check string) "placement md5" "4af236342358e8c92c405f4ab24f2c0b"
        (Digest.to_hex (Digest.file path)));
  Alcotest.(check int) "summed iterations" 1581 !iterations

(* 1,600 seeded batches of four local moves on one session of fft_2 at
   0.02 with 15% blockage in 32 rectangles: the solution cache outgrows
   its cap once and is reset to the live generation. The placement's
   MD5, the summed iterations and cache hits and the live entries at the
   end were computed on the engine as it stood before clean components
   carried their slices over without a lookup. *)
let test_pinned_cache_reset () =
  let module Rng = Mclh_benchgen.Rng in
  let options = { eco_options with blockage_count = 32 } in
  let d = (instance ~options ~scale:0.02 "fft_2").Mclh_benchgen.Generate.design in
  let t = Incr.create d in
  let rng = Rng.create 4242 in
  let g = d.Design.global in
  let iterations = ref 0 and hits = ref 0 and resets = ref 0 and entries = ref 0 in
  for _ = 1 to 1600 do
    let move _ =
      let cell = Rng.int rng (Design.num_cells d) in
      let x = Float.max 0.0 (g.Placement.xs.(cell) +. (5.0 *. Rng.gaussian rng)) in
      let y = Float.max 0.0 (g.Placement.ys.(cell) +. (0.75 *. Rng.gaussian rng)) in
      Edit.Move { cell; x; y }
    in
    let st = Incr.apply t (List.init 4 move) in
    iterations := !iterations + st.Incr.solve_iterations;
    hits := !hits + st.Incr.cache_hits;
    if Incr.cache_entries t < !entries then incr resets;
    entries := Incr.cache_entries t
  done;
  Alcotest.(check int) "one cache reset" 1 !resets;
  Alcotest.(check int) "live entries" 813 !entries;
  Alcotest.(check int) "summed iterations" 69722 !iterations;
  Alcotest.(check int) "summed cache hits" 187490 !hits;
  let path = Filename.temp_file "pinned_reset" ".pl.mclh" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write_placement ~path (Incr.legal t);
      Alcotest.(check string) "placement md5" "7f0e530f7fa77f66b0aca0cba8658f2c"
        (Digest.to_hex (Digest.file path)))

(* ---------- index carry = Hashtbl oracle ---------- *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_design (a : Design.t) (b : Design.t) =
  a.Design.cells = b.Design.cells
  && same_bits a.Design.global.Placement.xs b.Design.global.Placement.xs
  && same_bits a.Design.global.Placement.ys b.Design.global.Placement.ys
  && Netlist.num_cells a.Design.nets = Netlist.num_cells b.Design.nets
  && List.init (Netlist.num_nets a.Design.nets) (Netlist.net a.Design.nets)
     = List.init (Netlist.num_nets b.Design.nets) (Netlist.net b.Design.nets)
  && a.Design.blockages = b.Design.blockages

(* three batches in a row on a blocked design with tall cells, each a
   random mix of moves (some back onto the cell's own spot), resizes,
   inserts of one to three rows and deletes, often several edits of one
   cell. The old modulus vector is
   random, so every carried entry shows; the patched design, the map and
   the touched flags must equal the rebuilding oracle's, and the carried
   [s0], x and r the Hashtbl oracle's, bit for bit. *)
let qc_carry_matches_oracle =
  QCheck.Test.make ~count:40 ~name:"warm_s0 by index = Hashtbl oracle"
    QCheck.(pair (int_range 1 10_000) (int_range 0 3))
    (fun (seed, kinds) ->
      let module Rng = Mclh_benchgen.Rng in
      let options =
        { eco_options with seed; tall_cell_fraction = 0.3; blockage_count = 12 }
      in
      let d = ref (instance ~options ~scale:0.006 "fft_2").Mclh_benchgen.Generate.design in
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 3 do
        let d0 = !d in
        let n = Design.num_cells d0 in
        let chip = d0.Design.chip in
        let g = d0.Design.global in
        let edit _ =
          (* one edit in three hits cells 0-2, so a batch often edits a
             cell more than once *)
          let cell = Rng.int rng (if Rng.int rng 3 = 0 then min n 3 else n) in
          (* one draw in four only moves, so its batches all patch *)
          match Rng.int rng (if kinds = 0 then 2 else 5) with
          | 0 ->
            let x = Rng.float rng (float_of_int chip.Chip.num_sites) in
            let y = Rng.float rng (float_of_int chip.Chip.num_rows) in
            Edit.Move { cell; x; y }
          | 1 ->
            Edit.Move { cell; x = g.Placement.xs.(cell); y = g.Placement.ys.(cell) }
          | 2 -> Edit.Resize { cell; width = 1 + Rng.int rng 6 }
          | 3 ->
            let height = 1 + Rng.int rng 3 in
            let x = Rng.float rng (float_of_int chip.Chip.num_sites -. 4.0) in
            let y = Rng.float rng (float_of_int (chip.Chip.num_rows - height)) in
            Edit.Insert { width = 1 + Rng.int rng 4; height; x; y }
          | _ -> Edit.Delete { cell }
        in
        (* a cell is deleted once, after every other edit of it *)
        let deletes, others =
          List.partition
            (function Edit.Delete _ -> true | _ -> false)
            (List.init (1 + Rng.int rng 6) edit)
        in
        (* and cell 0 is resized twice: the second width counts *)
        let twice =
          if kinds = 0 then []
          else
            List.init 2 (fun _ -> Edit.Resize { cell = 0; width = 1 + Rng.int rng 6 })
        in
        let batch = others @ twice @ List.sort_uniq compare deletes in
        let model = Model.build d0 (Row_assign.assign d0) in
        let old_s =
          Array.init
            (model.Model.nvars + Model.num_constraints model)
            (fun _ -> Rng.float rng 100.0 -. 50.0)
        in
        let d', old_of_new, touched = Incr.apply_edits d0 batch in
        let rd', rold_of_new, rtouched = Incr_ref.apply_edits d0 batch in
        let model' = Model.build d' (Row_assign.assign d') in
        (* x and r are the two halves of the old modulus vector, so an
           entry of x' or r' is the oracle's s0 entry where the oracle
           carried one (a random entry never equals the plain start) and
           0 elsewhere *)
        let n = model.Model.nvars and n' = model'.Model.nvars in
        let s0, x', r' =
          Incr.warm_s0 model
            ~x:(Array.sub old_s 0 n)
            ~r:(Array.sub old_s n (Model.num_constraints model))
            ~s:old_s model' ~old_of_new ~touched
        in
        let rs0 = Incr_ref.warm_s0 model old_s model' ~old_of_new ~touched in
        let plain = Warm_start.plain_start model' in
        let carried lo len =
          Array.init len (fun i ->
              if Int64.equal
                   (Int64.bits_of_float rs0.(lo + i))
                   (Int64.bits_of_float plain.(lo + i))
              then 0.0
              else rs0.(lo + i))
        in
        ok :=
          !ok && same_design d' rd' && old_of_new = rold_of_new
          && touched = rtouched && same_bits s0 rs0
          && same_bits x' (carried 0 n')
          && same_bits r' (carried n' (Model.num_constraints model'));
        d := d'
      done;
      !ok)

(* ---------- patched model and clean components = cold ---------- *)

let same_model (a : Model.t) (b : Model.t) =
  let chains (m : Model.t) =
    Array.init
      (Mclh_linalg.Blocks.num_chains m.Model.blocks)
      (Mclh_linalg.Blocks.chain_vars m.Model.blocks)
  in
  a.Model.nvars = b.Model.nvars
  && a.Model.row_vars = b.Model.row_vars
  && chains a = chains b
  && same_bits a.Model.b_rhs b.Model.b_rhs
  && same_bits a.Model.p b.Model.p
  && same_bits a.Model.shift b.Model.shift
  && a.Model.var_cell = b.Model.var_cell
  && a.Model.var_row = b.Model.var_row
  && a.Model.first_var = b.Model.first_var

(* Four chained batches on a blocked design with tall cells: moves far
   and near, moves onto the cell's own spot, resizes, often two edits of
   one cell, and in one draw in three an insert or a delete, so the
   layout is also laid out again between patches. [check] sees the
   session and the design before and after each batch. *)
let eco_chain seed kinds check =
  let module Rng = Mclh_benchgen.Rng in
  let options =
    { eco_options with seed; tall_cell_fraction = 0.3; blockage_count = 12 }
  in
  let t =
    Incr.create
      (instance ~options ~scale:0.006 "fft_2").Mclh_benchgen.Generate.design
  in
  let rng = Rng.create seed in
  let ok = ref true in
  for b = 1 to 4 do
    let d0 = Incr.design t in
    let n = Design.num_cells d0 in
    let chip = d0.Design.chip in
    let g = d0.Design.global in
    let edit _ =
      let cell = Rng.int rng (if Rng.int rng 3 = 0 then min n 3 else n) in
      match Rng.int rng 4 with
      | 0 ->
        let x = Rng.float rng (float_of_int chip.Chip.num_sites) in
        let y = Rng.float rng (float_of_int chip.Chip.num_rows) in
        Edit.Move { cell; x; y }
      | 1 ->
        let x = g.Placement.xs.(cell) +. (4.0 *. Rng.gaussian rng) in
        let y = g.Placement.ys.(cell) +. Rng.gaussian rng in
        Edit.Move { cell; x = Float.max 0.0 x; y = Float.max 0.0 y }
      | 2 ->
        Edit.Move { cell; x = g.Placement.xs.(cell); y = g.Placement.ys.(cell) }
      | _ -> Edit.Resize { cell; width = 1 + Rng.int rng 6 }
    in
    let extra =
      if kinds = 0 && b = 2 then
        [ Edit.Insert { width = 2; height = 2; x = 10.0; y = 3.0 };
          Edit.Delete { cell = Rng.int rng n } ]
      else []
    in
    let batch = List.init (1 + Rng.int rng 5) edit @ extra in
    ignore (Incr.apply t batch);
    ok := !ok && check ~renumbered:(extra <> []) d0 t
  done;
  !ok

let qc_patched_model_is_cold =
  QCheck.Test.make ~count:30 ~name:"patched model = cold Model.build"
    QCheck.(pair (int_range 1 10_000) (int_range 0 2))
    (fun (seed, kinds) ->
      eco_chain seed kinds (fun ~renumbered:_ _ t ->
          let d = Incr.design t in
          same_model (Incr.model t) (Model.build d (Row_assign.assign d))))

(* each component of a cold build, keyed, and the component of every
   (cell, row) subcell *)
let cold_keys (d : Design.t) =
  let m = Model.build d (Row_assign.assign d) in
  let deco = Decompose.analyze m in
  let keys = Array.map (Decompose.shard_key m) deco.Decompose.shards in
  let at = Hashtbl.create m.Model.nvars in
  for v = 0 to m.Model.nvars - 1 do
    Hashtbl.replace at (m.Model.var_cell.(v), m.Model.var_row.(v))
      keys.(deco.Decompose.comp_of_var.(v))
  done;
  at

let clean_seen = ref 0

let qc_clean_keys_unchanged =
  QCheck.Test.make ~count:30 ~name:"clean components keep cold shard key"
    QCheck.(pair (int_range 1 10_000) (int_range 0 2))
    (fun (seed, kinds) ->
      eco_chain seed kinds (fun ~renumbered d0 t ->
          let clean = Incr.clean_components t in
          if renumbered then Array.for_all not clean
          else begin
            let before = cold_keys d0 and after = cold_keys (Incr.design t) in
            let m = Incr.model t in
            let comp_of_var, _ = Decompose.components m in
            (* a clean component's key, before and after, read at every
               one of its subcells *)
            let ok = ref true in
            for v = 0 to m.Model.nvars - 1 do
              if clean.(comp_of_var.(v)) then begin
                incr clean_seen;
                let at = (m.Model.var_cell.(v), m.Model.var_row.(v)) in
                match (Hashtbl.find_opt before at, Hashtbl.find_opt after at) with
                | Some k0, Some k1 -> if k0 <> k1 then ok := false
                | _ -> ok := false
              end
            done;
            !ok
          end))

(* the property above is not vacuous: most subcells sit in clean
   components *)
let test_clean_seen () =
  Alcotest.(check bool) "clean components were checked" true (!clean_seen > 1000)

(* Two lone cells of one width at one x, in rows 0 and 1, pose the same
   sub-LCP: they share a key, and the cache keeps one entry for both, the
   one written last. The first cell's component is then stale, and the
   next batch looks it up although nothing touched it; after that lookup
   it is carried clean again. This holds after [create] and after a
   batch in which both miss. *)
let test_duplicate_keys_looked_up () =
  let chip = Chip.make ~num_rows:4 ~num_sites:40 () in
  let d =
    Design.make ~name:"twins" ~chip
      ~cells:(Array.init 3 (fun id -> Cell.make ~id ~width:3 ~height:1 ()))
      ~global:(Placement.make ~xs:[| 10.0; 10.0; 25.0 |] ~ys:[| 0.0; 1.0; 3.0 |])
      ~nets:(Netlist.empty ~num_cells:3) ()
  in
  let t = Incr.create d in
  (* the components in variable order: cells 0, 1 and 2 *)
  let clean_after what expected batch =
    let st = Incr.apply t batch in
    Alcotest.(check (array bool)) what expected (Incr.clean_components t);
    st
  in
  let nudge x = [ Edit.Move { cell = 2; x; y = 3.0 } ] in
  ignore (clean_after "after create: cell 0 looked up" [| false; true; false |] (nudge 26.0));
  ignore (clean_after "then carried" [| true; true; false |] (nudge 27.0));
  let both =
    clean_after "both moved" [| false; false; true |]
      [ Edit.Move { cell = 0; x = 15.0; y = 0.0 };
        Edit.Move { cell = 1; x = 15.0; y = 1.0 } ]
  in
  Alcotest.(check int) "both missed" 2 both.Incr.dirty_shards;
  let st = clean_after "after both missed: cell 0 looked up" [| false; true; false |] (nudge 28.0) in
  Alcotest.(check int) "cell 0 hit, cell 2 missed" 1 st.Incr.dirty_shards;
  Alcotest.(check int) "hits" 2 st.Incr.cache_hits

(* ---------- Solver ?s0 restart ---------- *)

let test_solver_s0_restart () =
  let d = eco_design ~scale:0.01 in
  let model = Model.build d (Row_assign.assign d) in
  let first = Solver.solve ~config:tight model in
  let again = Solver.solve ~config:tight ~s0:first.Solver.modulus model in
  (* each component stops as soon as its own iterate change is below
     eps, so a restart from the final modulus re-verifies it in a few
     iterations per component (at most 4 on this design) and under 1%
     of the cold solve's work in total *)
  Alcotest.(check bool)
    (Printf.sprintf "every shard restarts in <= 4 iterations (max %d)"
       again.Solver.iterations)
    true
    (again.Solver.iterations <= 4);
  Alcotest.(check bool)
    (Printf.sprintf "restart nearly free (%d of %d iterations)"
       again.Solver.iterations_total first.Solver.iterations_total)
    true
    (100 * again.Solver.iterations_total <= first.Solver.iterations_total);
  let n = model.Model.nvars in
  let worst = ref 0.0 in
  for v = 0 to n - 1 do
    worst := Float.max !worst (Float.abs (first.Solver.x.(v) -. again.Solver.x.(v)))
  done;
  Alcotest.(check bool) "same solution" true (!worst <= 1e-8);
  match Solver.solve ~config:tight ~s0:(Mclh_linalg.Vec.zeros 3) model with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong s0 dimension must raise"

(* ---------- CLI: ECO sessions end to end ---------- *)

(* the "iterations saved" line of [mclh eco --verify] *)
let iterations_saved stdout =
  match
    List.find_opt (Cli.has_prefix "iterations saved")
      (String.split_on_char '\n' stdout)
  with
  | Some line -> Scanf.sscanf line "iterations saved : %d" Fun.id
  | None -> Alcotest.fail "eco --verify printed no iterations saved line"

(* one batch of every edit kind, and six batches of local moves: the
   saving is summed per batch on both sides, so it stays positive however
   many batches a replay has *)
let cli_eco_inputs =
  [ ( "mixed batch",
      "mclh-edits 1\nmove 3 40 2.5\nmove 17 80 5\nresize 9 7\n\
       insert 6 2 30 4\ndelete 5\n",
      1,
      5 );
    ( "six move batches",
      "mclh-edits 1\n\
       move 137 270.8 17.5\nmove 64 11.9 29.0\nmove 460 78.2 29.0\n\
       move 214 285.2 6.2\nbatch\n\
       move 399 201.8 9.3\nmove 2 240.5 24.2\nmove 234 197.4 8.5\n\
       move 325 264.8 26.7\nbatch\n\
       move 554 87.1 9.9\nmove 221 67.1 4.6\nmove 540 27.7 2.8\n\
       move 507 153.5 27.8\nbatch\n\
       move 224 23.2 15.0\nmove 22 162.5 26.8\nmove 102 19.9 12.0\n\
       move 303 163.9 4.3\nbatch\n\
       move 512 220.9 18.6\nmove 194 49.7 7.8\nmove 511 233.3 4.2\n\
       move 603 195.9 11.1\nbatch\n\
       move 413 121.2 6.3\nmove 561 190.9 5.2\nmove 383 55.6 11.6\n\
       move 110 287.5 8.0\n",
      6,
      24 ) ]

let test_cli_eco_session () =
  if not (Cli.available ()) then Alcotest.skip ()
  else begin
    let design = Filename.temp_file "mclh_eco" ".mclh" in
    Alcotest.(check int) "gen" 0
      (Cli.run
         [ "gen"; "-b"; "fft_2"; "-s"; "0.02"; "--blockages"; "0.15"; "-o";
           design ]);
    List.iter
      (fun (what, text, batches, edits_count) ->
        let edits = Filename.temp_file "mclh_eco" ".edits" in
        let placed = Filename.temp_file "mclh_eco" ".pl.mclh" in
        let report = Filename.temp_file "mclh_eco" ".json" in
        Out_channel.with_open_bin edits (fun oc -> output_string oc text);
        let code, stdout, _ =
          Cli.run_output
            [ "eco"; "-i"; design; "-e"; edits; "--verify"; "--metrics-out";
              report; "-o"; placed ]
        in
        Alcotest.(check int) (what ^ ": eco --verify exits 0") 0 code;
        let r = Cli.read_json report in
        List.iter Sys.remove [ edits; placed; report ];
        Alcotest.(check bool) (what ^ ": iterations saved > 0") true
          (iterations_saved stdout > 0);
        Alcotest.(check bool) (what ^ ": legal") true
          (Cli.member [ "meta"; "legal" ] r = Mclh_report.Json.Bool true);
        let counter name = Cli.int_at [ "counters"; name ] r in
        Alcotest.(check int) (what ^ ": batches") batches
          (counter "incr/batches");
        Alcotest.(check int) (what ^ ": edits") edits_count
          (counter "incr/edits");
        Alcotest.(check bool) (what ^ ": cache hits counted") true
          (List.mem "incr/cache_hits" (Cli.keys [ "counters" ] r));
        Alcotest.(check bool) (what ^ ": dirty shards re-solved") true
          (counter "incr/dirty_shards" > 0);
        Alcotest.(check bool) (what ^ ": incr/solve span") true
          (List.mem "incr/solve" (Cli.keys [ "spans_s" ] r));
        Alcotest.(check bool) (what ^ ": warm-start trace") true
          (List.exists (Cli.has_prefix "incr/solve") (Cli.keys [ "traces" ] r)))
      cli_eco_inputs;
    Sys.remove design
  end

let () =
  Alcotest.run "incr"
    [ ( "edits",
        [ Alcotest.test_case "file round-trip" `Quick test_edit_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_edit_parse_errors ] );
      ( "row_assign",
        [ Alcotest.test_case "assign_cell matches assign" `Quick
            test_assign_cell_matches_assign ] );
      ( "session",
        [ Alcotest.test_case "empty batch all hits" `Quick
            test_empty_batch_all_hits;
          Alcotest.test_case "equivalence with cold run" `Slow
            test_equivalence_with_cold_run;
          Alcotest.test_case "dirty set is local" `Quick
            test_dirty_set_is_local;
          Alcotest.test_case "revert re-hits cache" `Quick
            test_revert_rehits_cache;
          Alcotest.test_case "insert/delete round-trip" `Quick
            test_insert_delete_roundtrip;
          Alcotest.test_case "bad edits raise" `Quick test_bad_edits_raise;
          Alcotest.test_case "obs counters" `Quick test_obs_counters;
          Alcotest.test_case "obs names bounded over 30 batches" `Quick
            test_obs_names_bounded ] );
      ("non-finite", non_finite_cases);
      ( "pinned md5",
        [ Alcotest.test_case "fft_2 0.04 blockages 30-batch replay" `Quick
            test_pinned_replay;
          Alcotest.test_case "fft_2 0.02 1,600-batch cache reset"
            `Slow test_pinned_cache_reset ] );
      ( "warm start",
        List.map QCheck_alcotest.to_alcotest [ qc_carry_matches_oracle ] );
      ( "patching",
        List.map QCheck_alcotest.to_alcotest
          [ qc_patched_model_is_cold; qc_clean_keys_unchanged ]
        @ [ Alcotest.test_case "clean components were checked" `Quick
              test_clean_seen;
            Alcotest.test_case "duplicate keys are looked up" `Quick
              test_duplicate_keys_looked_up ] );
      ( "cli",
        [ Alcotest.test_case "eco --verify --metrics-out" `Quick
            test_cli_eco_session ] );
      ( "solver",
        [ Alcotest.test_case "?s0 restart" `Quick test_solver_s0_restart ] ) ]
