open Mclh_circuit

type options = {
  seed : int;
  single_width_range : int * int;
  double_width_range : int * int;
  tall_cell_fraction : float;
  sites_per_row_ratio : float;
  noise_x_sigma : float;
  noise_y_sigma : float;
  hotspots : int;
  hotspot_strength : float;
  nets_per_cell : float;
  single_height_only : bool;
  blockage_fraction : float;
  blockage_count : int;
  fence_count : int;
}

let default_options =
  { seed = 1;
    single_width_range = (2, 10);
    double_width_range = (1, 5);
    tall_cell_fraction = 0.0;
    sites_per_row_ratio = 10.0;
    noise_x_sigma = 4.0;
    noise_y_sigma = 0.12;
    hotspots = 3;
    hotspot_strength = 0.02;
    nets_per_cell = 1.2;
    single_height_only = false;
    blockage_fraction = 0.0;
    blockage_count = 4;
    fence_count = 0 }

type instance = { design : Design.t; reference : Placement.t }

(* random non-overlapping blockage rectangles covering roughly the target
   fraction of the chip *)
let make_blockages rng options (chip : Chip.t) =
  if options.blockage_fraction <= 0.0 || options.blockage_count <= 0 then [||]
  else begin
    let num_rows = chip.Chip.num_rows and num_sites = chip.Chip.num_sites in
    let target_area =
      options.blockage_fraction *. float_of_int (Chip.capacity chip)
    in
    let per_block = target_area /. float_of_int options.blockage_count in
    let acc = ref [] in
    let overlaps (r0, h0, x0, w0) (b : Blockage.t) =
      r0 < b.Blockage.row + b.Blockage.height
      && b.Blockage.row < r0 + h0
      && x0 < b.Blockage.x + b.Blockage.width
      && b.Blockage.x < x0 + w0
    in
    let attempts = ref 0 in
    while List.length !acc < options.blockage_count && !attempts < 200 do
      incr attempts;
      (* aspect: blockages a few rows tall, wide in x *)
      let h = min num_rows (2 + Rng.int rng (max 1 (num_rows / 4))) in
      let w =
        max 2 (min (num_sites - 2) (int_of_float (per_block /. float_of_int h)))
      in
      if w >= 2 && h >= 1 && w < num_sites && h <= num_rows then begin
        let row = Rng.int rng (num_rows - h + 1) in
        let x = Rng.int rng (num_sites - w + 1) in
        if not (List.exists (overlaps (row, h, x, w)) !acc) then
          acc := Blockage.make ~row ~height:h ~x ~width:w :: !acc
      end
    done;
    Array.of_list (List.rev !acc)
  end

(* Shuffled processing order with multi-row cells first (they are the
   hardest to fit). Built by two passes over the shuffled index array
   into a preallocated output — the historical [multi @ single] list
   construction allocated three lists of a cons cell per cell, which at
   full scale (1.3M cells) dominated packing's minor-heap traffic. The
   order (and the RNG draw) is unchanged. *)
let pack_order rng (cells : Cell.t array) =
  let n = Array.length cells in
  let idx = Array.init n (fun i -> i) in
  Rng.shuffle rng idx;
  let out = Array.make n 0 in
  let k = ref 0 in
  Array.iter
    (fun i ->
      if cells.(i).Cell.height > 1 then begin
        out.(!k) <- i;
        incr k
      end)
    idx;
  Array.iter
    (fun i ->
      if cells.(i).Cell.height = 1 then begin
        out.(!k) <- i;
        incr k
      end)
    idx;
  out

let build_cells rng options (spec : Spec.t) =
  let lo_s, hi_s = options.single_width_range in
  let lo_d, hi_d = options.double_width_range in
  (* exactly [singles + doubles] cells are pushed, in id order — write
     them straight into a preallocated array (the historical list-push /
     reverse / copy path held every cell behind a cons cell) *)
  let n = spec.singles + spec.doubles in
  let arr = Array.make n (Cell.make ~id:0 ~width:1 ~height:1 ()) in
  let next_id = ref 0 in
  let push width height rail =
    let id = !next_id in
    incr next_id;
    arr.(id) <- Cell.make ~id ~width ~height ?bottom_rail:rail ()
  in
  for _ = 1 to spec.singles do
    push (Rng.int_in rng lo_s hi_s) 1 None
  done;
  for _ = 1 to spec.doubles do
    let w = Rng.int_in rng lo_d hi_d in
    if options.single_height_only then
      (* Section 5.3: the cell keeps its original (un-halved) footprint *)
      push (2 * w) 1 None
    else if Rng.float rng 1.0 < options.tall_cell_fraction then begin
      (* extension beyond the paper's suite: taller cells at roughly the
         same area (triple-height flippable, or quad-height with a rail) *)
      if Rng.bool rng then push (max 1 ((2 * w) / 3)) 3 None
      else push (max 1 (w / 2)) 4 (Some (if Rng.bool rng then Rail.Vdd else Rail.Vss))
    end
    else push w 2 (Some (if Rng.bool rng then Rail.Vdd else Rail.Vss))
  done;
  (* shuffle so ids do not encode the height class *)
  let order = Array.init n (fun i -> i) in
  Rng.shuffle rng order;
  Array.init n (fun new_id ->
      let c = arr.(order.(new_id)) in
      Cell.make ~id:new_id ~width:c.Cell.width ~height:c.Cell.height
        ?bottom_rail:c.Cell.bottom_rail ())

let size_chip options ~total_area ~max_width ~density =
  (* blockages consume chip area without hosting cells; widen so the free
     capacity still matches the target density *)
  let capacity =
    float_of_int total_area /. density
    /. Float.max 0.05 (1.0 -. options.blockage_fraction)
  in
  let rows_f = sqrt (capacity /. options.sites_per_row_ratio) in
  let num_rows =
    let r = max 4 (int_of_float (Float.round rows_f)) in
    if r mod 2 = 0 then r else r + 1
  in
  let num_sites =
    max (max_width + 2)
      (int_of_float (Float.ceil (capacity /. float_of_int num_rows)))
  in
  Chip.make ~num_rows ~num_sites ()

(* Pack a legal placement: multi-row cells first, each cell into the
   admitting row (or row span) with the lowest frontier, advancing the
   frontier by a randomized gap that statistically spreads the free space
   across the whole row. *)
let pack rng (chip : Chip.t) (cells : Cell.t array) ~density =
  let num_rows = chip.Chip.num_rows and num_sites = chip.Chip.num_sites in
  let cursor = Array.make num_rows 0 in
  let xs = Array.make (Array.length cells) 0.0 in
  let ys = Array.make (Array.length cells) 0.0 in
  let gap_for width =
    let free_ratio = (1.0 -. density) /. Float.max density 0.05 in
    let mean = float_of_int width *. free_ratio in
    int_of_float (Rng.float rng (2.0 *. mean +. 1.0))
  in
  let place (c : Cell.t) =
    let h = c.Cell.height and w = c.Cell.width in
    (* frontier of a span = max cursor over the spanned rows *)
    let span_front r =
      let front = ref 0 in
      for k = r to r + h - 1 do
        front := max !front cursor.(k)
      done;
      !front
    in
    let best = ref (-1) and best_front = ref max_int in
    for r = 0 to num_rows - h do
      if Chip.row_admits chip c r then begin
        let front = span_front r in
        if front < !best_front && front + w <= num_sites then begin
          best := r;
          best_front := front
        end
      end
    done;
    if !best < 0 then None
    else begin
      let r = !best in
      let front = !best_front in
      let gap = min (gap_for w) (num_sites - front - w) in
      let x = front + max 0 gap in
      for k = r to r + h - 1 do
        cursor.(k) <- x + w
      done;
      xs.(c.Cell.id) <- float_of_int x;
      ys.(c.Cell.id) <- float_of_int r;
      Some ()
    end
  in
  let order = pack_order rng cells in
  let ok = Array.for_all (fun i -> place cells.(i) <> None) order in
  if ok then Some (Placement.make ~xs ~ys) else None

let rec pack_with_growth rng chip cells ~density ~attempts =
  (* retry a few shuffled orders at the same size before growing, and grow
     gently: widening dilutes the density the spec asks for *)
  let rec try_same_size k =
    if k = 0 then None else
      match pack rng chip cells ~density with
      | Some pl -> Some pl
      | None -> try_same_size (k - 1)
  in
  match try_same_size 3 with
  | Some pl -> (chip, pl)
  | None ->
    if attempts <= 0 then
      failwith "Generate: could not pack a legal reference placement";
    let wider =
      Chip.make ~base_rail:chip.Chip.base_rail ~num_rows:chip.Chip.num_rows
        ~num_sites:(chip.Chip.num_sites + (chip.Chip.num_sites / 33) + 2)
        ()
    in
    pack_with_growth rng wider cells ~density ~attempts:(attempts - 1)

(* fences: random disjoint rectangles; membership sized to each fence's
   capacity at the target density. Members are packed inside their fence
   (the complement acts as a mask), everyone else outside (the fence
   rectangles act as masks), so the reference packing is a witness for the
   exclusive fence semantics. *)
let make_fences rng count (chip : Chip.t) =
  let num_rows = chip.Chip.num_rows and num_sites = chip.Chip.num_sites in
  let fences = ref [] in
  let overlaps (r0, h0, x0, w0) (r : Region.rect) =
    r0 < r.Region.row + r.Region.height
    && r.Region.row < r0 + h0
    && x0 < r.Region.x + r.Region.width
    && r.Region.x < x0 + w0
  in
  let attempts = ref 0 in
  while List.length !fences < count && !attempts < 100 do
    incr attempts;
    let h = min num_rows (max 2 (num_rows / 3)) in
    let w = min num_sites (max 8 (num_sites / (2 * max 1 count))) in
    if h <= num_rows && w <= num_sites then begin
      let row = Rng.int rng (num_rows - h + 1) in
      let x = Rng.int rng (num_sites - w + 1) in
      let rect = { Region.row; height = h; x; width = w } in
      if not (List.exists (fun reg -> List.exists (overlaps (row, h, x, w)) reg.Region.rects) !fences)
      then
        fences :=
          Region.make ~name:(Printf.sprintf "fence%d" (List.length !fences)) [ rect ]
          :: !fences
    end
  done;
  Array.of_list (List.rev !fences)

(* assign cells to fences: fill each fence to ~[density] of its area with
   cells drawn round-robin, leaving the rest in the default territory *)
let assign_fence_members rng ~density (fences : Region.t array)
    (cells : Cell.t array) =
  let n = Array.length cells in
  let membership = Array.make n None in
  let order = Array.init n (fun i -> i) in
  Rng.shuffle rng order;
  let cursor = ref 0 in
  Array.iteri
    (fun k reg ->
      let budget = ref (density *. 0.95 *. float_of_int (Region.area reg)) in
      while !budget > 0.0 && !cursor < n do
        let i = order.(!cursor) in
        incr cursor;
        let a = float_of_int (Cell.area cells.(i)) in
        if a <= !budget then begin
          membership.(i) <- Some k;
          budget := !budget -. a
        end
        else budget := 0.0
      done)
    fences;
  membership

(* occupancy-based masked packing, used whenever blockages or fences
   fragment the rows: each cell lands at the free spot nearest a random
   target. One grid per class (each fence, then the default territory;
   just the one grid without fences) sees the blockages, the cells
   already placed, and the class's own exclusion mask. *)
let pack_with_fences rng (chip : Chip.t) blockages (fences : Region.t array)
    membership (cells : Cell.t array) =
  let scratch k =
    let mask =
      match k with
      | Some f -> Region.complement_blockages fences.(f) chip
      | None ->
        Array.to_list fences |> List.concat_map Region.to_blockages
    in
    let d =
      Design.make
        ~blockages:(Array.append blockages (Array.of_list mask))
        ~name:"scratch" ~chip ~cells:[||] ~global:(Placement.create 0)
        ~nets:(Netlist.empty ~num_cells:0)
        ()
    in
    Occupancy.of_design d
  in
  let grids =
    Array.init (Array.length fences + 1) (fun k ->
        scratch (if k < Array.length fences then Some k else None))
  in
  let grid_of i =
    match membership.(i) with
    | Some f -> grids.(f)
    | None -> grids.(Array.length fences)
  in
  let xs = Array.make (Array.length cells) 0.0 in
  let ys = Array.make (Array.length cells) 0.0 in
  let order = pack_order rng cells in
  let ok =
    Array.for_all
      (fun i ->
        let c = cells.(i) in
        let x0 = Rng.int rng (max 1 (chip.Chip.num_sites - c.Cell.width + 1)) in
        let row0 = Rng.int rng (max 1 (chip.Chip.num_rows - c.Cell.height + 1)) in
        match Occupancy.find_spot (grid_of i) c ~row0 ~x0 with
        | Some (row, x, _) ->
          (* occupy the span in every class grid *)
          Array.iter
            (fun g ->
              Occupancy.mark g ~row ~height:c.Cell.height ~x ~width:c.Cell.width)
            grids;
          xs.(i) <- float_of_int x;
          ys.(i) <- float_of_int row;
          true
        | None -> false)
      order
  in
  if ok then Some (Placement.make ~xs ~ys) else None

let perturb rng options ~density (chip : Chip.t) (cells : Cell.t array)
    (reference : Placement.t) =
  (* real global placers spread cells to meet density targets, so the
     denser the design, the smaller the typical overlap with neighbours;
     scale the noise by the free-space ratio to reproduce that shape
     (and with it the paper's density-vs-illegal-cell correlation) *)
  let free_scale = Float.min 1.0 ((1.0 -. density) /. 0.5) in
  (* vertical wobble shrinks fast with density (spreading keeps cells in
     their rows); horizontal wobble shrinks less — local x overlaps are
     what legalization mainly resolves, at any density *)
  let noise_x = options.noise_x_sigma *. Float.max 0.5 free_scale in
  let noise_y = options.noise_y_sigma *. Float.max 0.15 free_scale in
  let num_rows = float_of_int chip.Chip.num_rows in
  let num_sites = float_of_int chip.Chip.num_sites in
  let centers =
    Array.init options.hotspots (fun _ ->
        (Rng.float rng num_sites, Rng.float rng num_rows))
  in
  let tau = Float.max 1.0 (sqrt ((num_sites *. num_sites) +. (num_rows *. num_rows)) /. 20.0) in
  let xs = Array.copy reference.Placement.xs in
  let ys = Array.copy reference.Placement.ys in
  Array.iter
    (fun (c : Cell.t) ->
      let i = c.Cell.id in
      let x = ref (xs.(i) +. (noise_x *. Rng.gaussian rng)) in
      let y = ref (ys.(i) +. (noise_y *. Rng.gaussian rng)) in
      Array.iter
        (fun (cx, cy) ->
          let dx = cx -. !x and dy = cy -. !y in
          let dist2 = (dx *. dx) +. (dy *. dy) in
          let pull =
            options.hotspot_strength *. exp (-.dist2 /. (2.0 *. tau *. tau))
          in
          x := !x +. (pull *. dx);
          y := !y +. (pull *. dy))
        centers;
      let clamp v lo hi = Float.max lo (Float.min hi v) in
      xs.(i) <- clamp !x 0.0 (num_sites -. float_of_int c.Cell.width);
      ys.(i) <- clamp !y 0.0 (num_rows -. float_of_int c.Cell.height))
    cells;
  Placement.make ~xs ~ys

let generate ?(options = default_options) (spec : Spec.t) =
  if spec.singles + spec.doubles <= 0 then
    invalid_arg "Generate.generate: spec has no cells";
  let rng = Rng.of_string (Printf.sprintf "%s#%d" spec.name options.seed) in
  let cells = build_cells rng options spec in
  let total_area = Array.fold_left (fun acc c -> acc + Cell.area c) 0 cells in
  let max_width =
    Array.fold_left (fun acc c -> max acc c.Cell.width) 1 cells
  in
  let chip = size_chip options ~total_area ~max_width ~density:spec.density in
  let blockages = make_blockages rng options chip in
  let fences = make_fences rng options.fence_count chip in
  let membership =
    if Array.length fences = 0 then Array.make (Array.length cells) None
    else assign_fence_members rng ~density:spec.density fences cells
  in
  let cells =
    if Array.length fences = 0 then cells
    else
      Array.mapi
        (fun i (c : Cell.t) ->
          Cell.make ~id:i ~name:c.Cell.name ~width:c.Cell.width
            ~height:c.Cell.height ?bottom_rail:c.Cell.bottom_rail
            ?region:membership.(i) ())
        cells
  in
  let chip, reference =
    if Array.length fences = 0 && Array.length blockages = 0 then
      pack_with_growth rng chip cells ~density:spec.density ~attempts:6
    else begin
      let rec attempt chip k =
        match pack_with_fences rng chip blockages fences membership cells with
        | Some reference -> (chip, reference)
        | None ->
          if k <= 0 then
            failwith "Generate: could not pack with blockages or fences";
          let wider =
            Chip.make ~base_rail:chip.Chip.base_rail
              ~row_height:chip.Chip.row_height ~num_rows:chip.Chip.num_rows
              ~num_sites:(chip.Chip.num_sites + (chip.Chip.num_sites / 20) + 2)
              ()
          in
          (* blockages and fences keep their absolute coordinates: the
             chip only grows *)
          attempt wider (k - 1)
      in
      attempt chip 6
    end
  in
  let global =
    perturb rng options ~density:spec.density chip cells reference
  in
  let nets =
    Nets.generate rng ~nets_per_cell:options.nets_per_cell ~chip ~cells
      ~placement:global
  in
  let design =
    Design.make ~blockages ~regions:fences ~name:spec.name ~chip ~cells ~global
      ~nets ()
  in
  { design; reference }

let generate_named ?options ?(scale = 1.0) name =
  let spec = Spec.find name in
  generate ?options (Spec.scaled scale spec)
