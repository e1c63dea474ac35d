open Mclh_circuit
module Obs = Mclh_obs.Obs

type result = {
  placement : Placement.t;
  illegal_before : int;
  relocated : int;
  relocation_cost : float;
  repack_fallback : bool;
  exact_repacks : int;
  unplaced : int list;
}

(* the one clamp both repair passes share: a relocation search never starts
   left of the chip or so far right the cell cannot fit. For a cell wider
   than the chip the clamp floors at 0 and the search fails cleanly instead
   of receiving a negative start. *)
let clamp_x0 ~num_sites (c : Cell.t) x = max 0 (min x (num_sites - c.Cell.width))

(* ---- exact evict-and-repack rescue -------------------------------------
   When even the area-ordered repack strands a cell, evict its nearest
   placed neighbors from a small window around the target and hand the
   window to the exact solver: the stuck cell plus the evictees are
   re-placed at provably-minimum displacement inside the freed space. *)

let rescue_band_rows = 2 (* extra rows each side of the stuck cell's span *)
let rescue_halo_sites = 24 (* extra sites each side of the stuck cell *)
let rescue_max_evict = 6
let rescue_max_nodes = 4_000

let exact_rescue ?obs (design : Design.t) occ ~pos ~sx ~row ~xs ~ys i =
  let chip = design.chip in
  let num_rows = chip.Chip.num_rows and num_sites = chip.Chip.num_sites in
  let c = design.cells.(i) in
  let row0 = row.(i) in
  let x0 = clamp_x0 ~num_sites c sx.(i) in
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
    { Mclh_audit.Exact.id = j;
      width = cj.Cell.width;
      height = cj.Cell.height;
      rows = Array.of_list rows;
      target_x = float_of_int (clamp_x0 ~num_sites cj sx.(j));
      target_y = float_of_int row.(j) }
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

(* ---- the acceptance order ----------------------------------------------
   Snapped site, then global x, then id. A counting sort files each cell
   under its site, cells at or past the right edge in one last bucket,
   and each bucket is then sorted on that full key. *)

(* cell [a] goes before cell [b] *)
let before sx gx a b =
  let sa = sx.(a) and sb = sx.(b) in
  if sa <> sb then sa < sb
  else
    let c = Float.compare gx.(a) gx.(b) in
    if c <> 0 then c < 0 else a < b

(* MMSIM output leaves a few dozen cells per site: such a bucket, whose
   cells share their site, is sorted by insertion on (global x, id)
   copied next to the ids; the overflow bucket, whose sites differ, and
   a crowded one (many cells piled on one site) by a comparison sort *)
let crowded = 128

let acceptance_order ~num_sites ~sx ~gx =
  let n = Array.length sx in
  if Array.length gx <> n then
    invalid_arg "Tetris_alloc.acceptance_order: dimension";
  (* bucket b fills slots start.(b) .. start.(b + 1) - 1 *)
  let start = Array.make (num_sites + 2) 0 in
  for i = 0 to n - 1 do
    if sx.(i) < 0 then
      invalid_arg "Tetris_alloc.acceptance_order: negative site";
    let b = min sx.(i) num_sites + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to num_sites + 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let next = Array.sub start 0 (num_sites + 1) in
  let order = Array.make n 0 and kg = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let b = min sx.(i) num_sites in
    let k = next.(b) in
    order.(k) <- i;
    kg.(k) <- gx.(i);
    next.(b) <- k + 1
  done;
  for b = 0 to num_sites do
    let lo = start.(b) and hi = start.(b + 1) in
    if b = num_sites || hi - lo > crowded then begin
      let sub = Array.sub order lo (hi - lo) in
      Array.sort
        (fun a b -> if a = b then 0 else if before sx gx a b then -1 else 1)
        sub;
      Array.blit sub 0 order lo (hi - lo)
    end
    else
      for k = lo + 1 to hi - 1 do
        let v = order.(k) and g = kg.(k) in
        let j = ref k in
        (* (g, v) goes before slot !j - 1, written out: a function taking
           the float [g] would box it on every comparison *)
        while
          !j > lo
          &&
          let c = Float.compare g kg.(!j - 1) in
          c < 0 || (c = 0 && v < order.(!j - 1))
        do
          order.(!j) <- order.(!j - 1);
          kg.(!j) <- kg.(!j - 1);
          decr j
        done;
        order.(!j) <- v;
        kg.(!j) <- g
      done
  done;
  order

(* past 2^62 a float has no int ([int_of_float] is undefined there), so
   such an x, +inf and NaN snap past every site, where no cell fits *)
let[@inline] snap_site x =
  let r = Float.round x in
  if Float.is_nan r || r >= 0x1p62 then max_int
  else if r <= 0.0 then 0
  else int_of_float r

let run ?obs (design : Design.t) (input : Placement.t) =
  let chip = design.chip in
  let n = Design.num_cells design in
  let num_sites = chip.Chip.num_sites in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  (* snap to the nearest site and row, in cell-id order; out-of-right-
     boundary stays out (a non-finite x included), and [fits] is false
     for it and for a row whose rail the cell does not admit *)
  let sx = Array.make n 0 and row = Array.make n 0 in
  let width = Array.make n 0 and height = Array.make n 0 in
  let fits = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    let c = design.cells.(i) in
    let x = snap_site input.Placement.xs.(i) in
    let r = int_of_float (Float.round input.Placement.ys.(i)) in
    let r = max 0 (min (chip.Chip.num_rows - c.Cell.height) r) in
    sx.(i) <- x;
    row.(i) <- r;
    width.(i) <- c.Cell.width;
    height.(i) <- c.Cell.height;
    if x <= num_sites - c.Cell.width && Chip.row_admits chip c r then
      Bytes.set fits i '\001'
  done;
  let order = acceptance_order ~num_sites ~sx ~gx:design.global.Placement.xs in
  (* acceptance scan: a cell keeps its snapped span if it fits and is free *)
  let occ = Occupancy.of_design design in
  let illegal = ref [] in
  for k = 0 to n - 1 do
    let i = order.(k) in
    let x = sx.(i) and r = row.(i) and h = height.(i) and w = width.(i) in
    if
      Bytes.get fits i <> '\000'
      && Occupancy.is_free_span occ ~row:r ~height:h ~x ~width:w
    then begin
      Occupancy.occupy occ ~row:r ~height:h ~x ~width:w;
      xs.(i) <- float_of_int x;
      ys.(i) <- float_of_int r
    end
    else illegal := i :: !illegal
  done;
  let illegal = List.rev !illegal in
  let illegal_before = List.length illegal in
  let relocated = ref 0 and relocation_cost = ref 0.0 in
  let place_illegal i =
    let c = design.cells.(i) in
    let row0 = row.(i) in
    let x0 = clamp_x0 ~num_sites c sx.(i) in
    match Occupancy.find_spot occ c ~row0 ~x0 with
    | Some (r, x, cost) ->
      Occupancy.occupy occ ~row:r ~height:c.Cell.height ~x ~width:c.Cell.width;
      xs.(i) <- float_of_int x;
      ys.(i) <- float_of_int r;
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
        let c = Int.compare height.(b) height.(a) in
        if c <> 0 then c
        else
          let c =
            Int.compare (width.(b) * height.(b)) (width.(a) * height.(a))
          in
          if c <> 0 then c
          else
            let c = Int.compare sx.(a) sx.(b) in
            if c <> 0 then c else Int.compare a b)
      order2;
    relocated := 0;
    relocation_cost := 0.0;
    let pos = Array.make n None in
    let unplaced = ref [] in
    Array.iter
      (fun i ->
        let c = design.cells.(i) in
        let row0 = row.(i) in
        let x0 = clamp_x0 ~num_sites c sx.(i) in
        match Occupancy.find_spot occ c ~row0 ~x0 with
        | Some (r, x, cost) ->
          Occupancy.occupy occ ~row:r ~height:c.Cell.height ~x
            ~width:c.Cell.width;
          pos.(i) <- Some (r, x);
          xs.(i) <- float_of_int x;
          ys.(i) <- float_of_int r;
          incr relocated;
          relocation_cost := !relocation_cost +. cost
        | None ->
          (* the historical hard-failure point: evict-and-exact-repack
             first; only a genuinely unplaceable cell is reported *)
          if exact_rescue ?obs design occ ~pos ~sx ~row ~xs ~ys i then begin
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
