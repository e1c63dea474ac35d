(* Test-only reference for [Tetris_alloc.run]: the allocator as it was
   before the acceptance order became a counting sort, kept verbatim. It
   snaps into a boxed (x, row) tuple array, orders the acceptance scan
   with a closure comparison sort on (snapped x, global x, id), reads
   every cell record in the scan, and orders the repack fallback with
   polymorphic tuple comparisons. Only its snap has changed since: NaN
   and an x of 2^62 or more now snap past every site, as in
   [Tetris_alloc.snap_site], where they used to land on site 0 (and the
   right-edge test is written so that such a site cannot overflow it).
   [order] is that comparison sort alone:
   the oracle for [Tetris_alloc.acceptance_order]. The production run
   must give the same placement bits and counts as [run]. *)

open Mclh_circuit
module Obs = Mclh_obs.Obs
open Mclh_core.Tetris_alloc

(* the acceptance order: snapped site, then global x, then id *)
let order ~sx ~gx =
  let order = Array.init (Array.length sx) (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare sx.(a) sx.(b) in
      if c <> 0 then c
      else
        let c = compare (gx.(a) : float) gx.(b) in
        if c <> 0 then c else compare a b)
    order;
  order

let rescue_band_rows = 2 (* extra rows each side of the stuck cell's span *)
let rescue_halo_sites = 24 (* extra sites each side of the stuck cell *)
let rescue_max_evict = 6
let rescue_max_nodes = 4_000

let exact_rescue ?obs (design : Design.t) occ ~pos ~snap ~xs ~ys i =
  let chip = design.chip in
  let num_rows = chip.Chip.num_rows and num_sites = chip.Chip.num_sites in
  let c = design.cells.(i) in
  let x0, row0 = snap.(i) in
  let x0 = clamp_x0 ~num_sites c x0 in
  let band0 = max 0 (row0 - rescue_band_rows) in
  let band1 = min num_rows (row0 + c.Cell.height + rescue_band_rows) in
  let wx0 = max 0 (x0 - rescue_halo_sites) in
  let wx1 = min num_sites (x0 + c.Cell.width + rescue_halo_sites) in
  let n = Design.num_cells design in
  let evictable = ref [] in
  for j = 0 to n - 1 do
    match pos.(j) with
    | Some (r, x) ->
      let cj = design.cells.(j) in
      if
        r >= band0
        && r + cj.Cell.height <= band1
        && x >= wx0
        && x + cj.Cell.width <= wx1
      then evictable := j :: !evictable
    | None -> ()
  done;
  let evicted =
    let dist j = abs (snd (Option.get pos.(j)) - x0) in
    List.sort (fun a b -> compare (dist a, a) (dist b, b)) !evictable
    |> List.filteri (fun k _ -> k < rescue_max_evict)
  in
  let saved = List.map (fun j -> (j, Option.get pos.(j))) evicted in
  List.iter
    (fun (j, (r, x)) ->
      let cj = design.cells.(j) in
      Occupancy.release occ ~row:r ~height:cj.Cell.height ~x
        ~width:cj.Cell.width;
      pos.(j) <- None)
    saved;
  let restore () =
    List.iter
      (fun (j, (r, x)) ->
        let cj = design.cells.(j) in
        Occupancy.occupy occ ~row:r ~height:cj.Cell.height ~x
          ~width:cj.Cell.width;
        pos.(j) <- Some (r, x))
      saved
  in
  (* free intervals of one band row, by scanning the occupancy grid over
     the window: maximal runs of free sites *)
  let free r =
    if r < band0 || r >= band1 then []
    else begin
      let segs = ref [] and run_start = ref (-1) in
      for s = wx0 to wx1 - 1 do
        let free_site =
          Occupancy.is_free_span occ ~row:r ~height:1 ~x:s ~width:1
        in
        if free_site && !run_start < 0 then run_start := s
        else if (not free_site) && !run_start >= 0 then begin
          segs := (!run_start, s) :: !segs;
          run_start := -1
        end
      done;
      if !run_start >= 0 then segs := (!run_start, wx1) :: !segs;
      List.rev !segs
    end
  in
  let spec_of j =
    let cj = design.cells.(j) in
    let rows =
      List.filter
        (fun r -> Chip.row_admits chip cj r)
        (List.init (max 0 (band1 - band0 - cj.Cell.height + 1)) (fun k ->
             band0 + k))
    in
    let sx, srow = snap.(j) in
    { Mclh_audit.Exact.id = j;
      width = cj.Cell.width;
      height = cj.Cell.height;
      rows = Array.of_list rows;
      target_x = float_of_int (clamp_x0 ~num_sites cj sx);
      target_y = float_of_int srow }
  in
  let spec = Array.of_list (List.map spec_of (i :: evicted)) in
  if Array.exists (fun (s : Mclh_audit.Exact.cell) -> Array.length s.rows = 0) spec
  then begin
    restore ();
    false
  end
  else begin
    match
      Mclh_audit.Exact.solve ~max_nodes:rescue_max_nodes
        ~row_height:chip.Chip.row_height ~free spec
    with
    | Mclh_audit.Exact.Optimal sol | Mclh_audit.Exact.Feasible sol ->
      let ok = ref true in
      Array.iteri
        (fun k (s : Mclh_audit.Exact.cell) ->
          if !ok then begin
            let r = sol.Mclh_audit.Exact.rows.(k)
            and x = sol.Mclh_audit.Exact.xs.(k) in
            let cj = design.cells.(s.Mclh_audit.Exact.id) in
            if
              Occupancy.is_free_span occ ~row:r ~height:cj.Cell.height ~x
                ~width:cj.Cell.width
            then begin
              Occupancy.occupy occ ~row:r ~height:cj.Cell.height ~x
                ~width:cj.Cell.width;
              pos.(s.Mclh_audit.Exact.id) <- Some (r, x)
            end
            else ok := false (* solver/grid disagreement: roll back *)
          end)
        spec;
      if !ok then begin
        Array.iter
          (fun (s : Mclh_audit.Exact.cell) ->
            let j = s.Mclh_audit.Exact.id in
            match pos.(j) with
            | Some (r, x) ->
              xs.(j) <- float_of_int x;
              ys.(j) <- float_of_int r
            | None -> ())
          spec;
        Obs.incr obs "tetris/exact_repacks";
        true
      end
      else begin
        (* roll back any partial occupation, then the evictions *)
        Array.iter
          (fun (s : Mclh_audit.Exact.cell) ->
            let j = s.Mclh_audit.Exact.id in
            if j <> i then
              match pos.(j) with
              | Some (r, x) ->
                let cj = design.cells.(j) in
                Occupancy.release occ ~row:r ~height:cj.Cell.height ~x
                  ~width:cj.Cell.width;
                pos.(j) <- None
              | None -> ())
          spec;
        (match pos.(i) with
        | Some (r, x) ->
          Occupancy.release occ ~row:r ~height:c.Cell.height ~x
            ~width:c.Cell.width;
          pos.(i) <- None
        | None -> ());
        restore ();
        false
      end
    | Mclh_audit.Exact.Infeasible | Mclh_audit.Exact.Budget_exceeded _ ->
      restore ();
      false
  end

let run ?obs (design : Design.t) (input : Placement.t) =
  let chip = design.chip in
  let n = Design.num_cells design in
  let num_sites = chip.Chip.num_sites in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  let snap = Array.make n (0, 0) in
  for i = 0 to n - 1 do
    let c = design.cells.(i) in
    let x =
      (* snap to the nearest site; out-of-right-boundary stays out and is
         caught by the legality scan below. NaN and an x of 2^62 or more
         (no int) snap past every site *)
      let r = Float.round input.Placement.xs.(i) in
      if Float.is_nan r || r >= 0x1p62 then max_int
      else if r <= 0.0 then 0
      else int_of_float r
    in
    let row = int_of_float (Float.round input.Placement.ys.(i)) in
    let row = max 0 (min (chip.Chip.num_rows - c.Cell.height) row) in
    snap.(i) <- (x, row)
  done;
  (* acceptance scan in x order (global x as tiebreak for determinism) *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let xa, _ = snap.(a) and xb, _ = snap.(b) in
      let c = compare xa xb in
      if c <> 0 then c
      else
        let c =
          compare design.global.Placement.xs.(a) design.global.Placement.xs.(b)
        in
        if c <> 0 then c else compare a b)
    order;
  let occ = Occupancy.of_design design in
  let illegal = ref [] in
  Array.iter
    (fun i ->
      let c = design.cells.(i) in
      let x, row = snap.(i) in
      if
        x <= num_sites - c.Cell.width
        && Chip.row_admits chip c row
        && Occupancy.is_free_span occ ~row ~height:c.Cell.height ~x
             ~width:c.Cell.width
      then begin
        Occupancy.occupy occ ~row ~height:c.Cell.height ~x ~width:c.Cell.width;
        xs.(i) <- float_of_int x;
        ys.(i) <- float_of_int row
      end
      else illegal := i :: !illegal)
    order;
  let illegal = List.rev !illegal in
  let illegal_before = List.length illegal in
  let relocated = ref 0 and relocation_cost = ref 0.0 in
  let place_illegal i =
    let c = design.cells.(i) in
    let x0, row0 = snap.(i) in
    let x0 = clamp_x0 ~num_sites c x0 in
    match Occupancy.find_spot occ c ~row0 ~x0 with
    | Some (row, x, cost) ->
      Occupancy.occupy occ ~row ~height:c.Cell.height ~x ~width:c.Cell.width;
      xs.(i) <- float_of_int x;
      ys.(i) <- float_of_int row;
      incr relocated;
      relocation_cost := !relocation_cost +. cost;
      true
    | None -> false
  in
  let exact_repacks = ref 0 in
  let finish repack_fallback unplaced =
    Obs.add obs "tetris/illegal_before" illegal_before;
    Obs.add obs "tetris/relocated" !relocated;
    if repack_fallback then Obs.incr obs "tetris/repack_fallback";
    Obs.gauge obs "tetris/relocation_cost" !relocation_cost;
    Obs.add obs "tetris/unplaced" (List.length unplaced);
    { placement = Placement.make ~xs ~ys;
      illegal_before;
      relocated = !relocated;
      relocation_cost = !relocation_cost;
      repack_fallback;
      exact_repacks = !exact_repacks;
      unplaced }
  in
  if List.for_all place_illegal illegal then finish false []
  else begin
    (* fragmentation at very high density: a multi-row cell found no free
       span after the singles grabbed theirs. Redo the whole allocation
       with the hardest cells (tallest, then largest) placed first so they
       get contiguous space before fragments develop. *)
    let occ = Occupancy.of_design design in
    let order2 = Array.copy order in
    Array.sort
      (fun a b ->
        let ca = design.cells.(a) and cb = design.cells.(b) in
        let c = compare cb.Cell.height ca.Cell.height in
        if c <> 0 then c
        else
          let c = compare (Cell.area cb) (Cell.area ca) in
          if c <> 0 then c
          else
            let xa, _ = snap.(a) and xb, _ = snap.(b) in
            compare (xa, a) (xb, b))
      order2;
    relocated := 0;
    relocation_cost := 0.0;
    let pos = Array.make n None in
    let unplaced = ref [] in
    Array.iter
      (fun i ->
        let c = design.cells.(i) in
        let x0, row0 = snap.(i) in
        let x0 = clamp_x0 ~num_sites c x0 in
        match Occupancy.find_spot occ c ~row0 ~x0 with
        | Some (row, x, cost) ->
          Occupancy.occupy occ ~row ~height:c.Cell.height ~x ~width:c.Cell.width;
          pos.(i) <- Some (row, x);
          xs.(i) <- float_of_int x;
          ys.(i) <- float_of_int row;
          incr relocated;
          relocation_cost := !relocation_cost +. cost
        | None ->
          (* the historical hard-failure point: evict-and-exact-repack
             first; only a genuinely unplaceable cell is reported *)
          if exact_rescue ?obs design occ ~pos ~snap ~xs ~ys i then begin
            incr relocated;
            incr exact_repacks;
            relocation_cost :=
              !relocation_cost
              +. Float.abs (xs.(i) -. float_of_int x0)
              +. (chip.Chip.row_height
                 *. Float.abs (ys.(i) -. float_of_int row0))
          end
          else begin
            unplaced := i :: !unplaced;
            xs.(i) <- float_of_int x0;
            ys.(i) <- float_of_int row0
          end)
      order2;
    finish true (List.rev !unplaced)
  end
