open Mclh_circuit
module Obs = Mclh_obs.Obs

(* maximum sweeps over all cells; a sweep that accepts nothing ends early *)
let passes = 3

(* row radius of a global move's spot search *)
let move_radius = 5

(* seed of the LCG that shuffles the visit order *)
let order_seed = 1

type stats = {
  hpwl_before : float;
  hpwl_after : float;
  moves : int;
  reorders : int;
  passes_run : int;
  skipped_cells : int;
}

let improvement s =
  if s.hpwl_before = 0.0 then 0.0
  else (s.hpwl_before -. s.hpwl_after) /. s.hpwl_before

(* mutable refinement state: positions + occupancy kept in sync *)
type state = {
  design : Design.t;
  pl : Placement.t;
  occ : Occupancy.t;
  nets_of : int array array;
  row_height : float;
  skip : bool array;
      (* illegal-in-input cells: frozen in place (their clamped span is
         marked as an obstacle) and excluded from every move *)
}

let net_hpwl st net_id =
  Hpwl.net ~row_height:st.row_height (Netlist.net st.design.Design.nets net_id) st.pl

let nets_hpwl st net_ids =
  Array.fold_left (fun acc n -> acc +. net_hpwl st n) 0.0 net_ids

let union_nets a b =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun n -> Hashtbl.replace tbl n ()) a;
  Array.iter (fun n -> Hashtbl.replace tbl n ()) b;
  Array.of_seq (Hashtbl.to_seq_keys tbl)

let cell_geom st i =
  let c = st.design.Design.cells.(i) in
  (c, int_of_float st.pl.Placement.xs.(i), int_of_float st.pl.Placement.ys.(i))

let release_cell st i =
  let c, x, row = cell_geom st i in
  Occupancy.release st.occ ~row ~height:c.Cell.height ~x ~width:c.Cell.width

let occupy_cell st i ~x ~row =
  let c = st.design.Design.cells.(i) in
  Occupancy.occupy st.occ ~row ~height:c.Cell.height ~x ~width:c.Cell.width;
  st.pl.Placement.xs.(i) <- float_of_int x;
  st.pl.Placement.ys.(i) <- float_of_int row

(* optimal-region target: median of the connected nets' bounding boxes,
   each computed without the moving cell's own pins *)
let optimal_target st i =
  let c = st.design.Design.cells.(i) in
  let xs = ref [] and ys = ref [] in
  Array.iter
    (fun n ->
      let pins = Netlist.net st.design.Design.nets n in
      let min_x = ref infinity and max_x = ref neg_infinity in
      let min_y = ref infinity and max_y = ref neg_infinity in
      let seen_other = ref false in
      Array.iter
        (fun (p : Netlist.pin) ->
          if p.Netlist.cell <> i then begin
            seen_other := true;
            let px = st.pl.Placement.xs.(p.Netlist.cell) +. p.dx in
            let py = st.pl.Placement.ys.(p.Netlist.cell) +. p.dy in
            if px < !min_x then min_x := px;
            if px > !max_x then max_x := px;
            if py < !min_y then min_y := py;
            if py > !max_y then max_y := py
          end)
        pins;
      if !seen_other then begin
        xs := ((!min_x +. !max_x) /. 2.0) :: !xs;
        ys := ((!min_y +. !max_y) /. 2.0) :: !ys
      end)
    st.nets_of.(i);
  match !xs with
  | [] -> None
  | _ ->
    let median l =
      let arr = Array.of_list l in
      Array.sort Float.compare arr;
      arr.(Array.length arr / 2)
    in
    let tx = median !xs -. (float_of_int c.Cell.width /. 2.0) in
    let ty = median !ys -. (float_of_int c.Cell.height /. 2.0) in
    Some (int_of_float (Float.round tx), int_of_float (Float.round ty))

let try_global_move st i =
  match optimal_target st i with
  | None -> false
  | Some (tx, ty) ->
    let c, old_x, old_row = cell_geom st i in
    if abs (tx - old_x) <= 1 && abs (ty - old_row) <= 0 then false
    else begin
      let before = nets_hpwl st st.nets_of.(i) in
      release_cell st i;
      let row0 =
        max 0 (min ((Occupancy.chip st.occ).Chip.num_rows - c.Cell.height) ty)
      in
      match
        Occupancy.find_spot ~row_window:move_radius st.occ c ~row0
          ~x0:(max 0 tx)
      with
      | None ->
        occupy_cell st i ~x:old_x ~row:old_row;
        false
      | Some (row, x, _) ->
        occupy_cell st i ~x ~row;
        let after = nets_hpwl st st.nets_of.(i) in
        if after < before -. 1e-9 then true
        else begin
          release_cell st i;
          occupy_cell st i ~x:old_x ~row:old_row;
          false
        end
    end

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y != x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* re-sequence a window of consecutive single-height cells in one row:
   candidates are packed left-to-right from the window start, which keeps
   them inside the original span *)
let try_reorder st ids =
  match ids with
  | [] | [ _ ] -> false
  | _ ->
    (* earlier moves in the same pass may have re-sequenced these cells, so
       order by the *current* positions and pack from the current left
       edge of the window *)
    let ids =
      List.sort
        (fun a b -> compare st.pl.Placement.xs.(a) st.pl.Placement.xs.(b))
        ids
    in
    let first = List.hd ids in
    (* the contiguous repacking below is only sound for cells homed in one
       shared row: a cell from another row would be dragged out of it, and
       a taller cell's other rows would not be repacked *)
    let home = int_of_float st.pl.Placement.ys.(first) in
    List.iter
      (fun i ->
        if
          int_of_float st.pl.Placement.ys.(i) <> home
          || st.design.Design.cells.(i).Cell.height <> 1
        then
          invalid_arg
            "Refine.try_reorder: window must be same-row single-height cells")
      ids;
    let nets =
      List.fold_left
        (fun acc i -> union_nets acc st.nets_of.(i))
        [||] ids
    in
    let row = int_of_float st.pl.Placement.ys.(first) in
    let span_start = int_of_float st.pl.Placement.xs.(first) in
    let span_width =
      List.fold_left (fun acc i -> acc + st.design.Design.cells.(i).Cell.width) 0 ids
    in
    let original = List.map (fun i -> (i, int_of_float st.pl.Placement.xs.(i))) ids in
    let place order =
      let cursor = ref span_start in
      List.iter
        (fun i ->
          st.pl.Placement.xs.(i) <- float_of_int !cursor;
          cursor := !cursor + st.design.Design.cells.(i).Cell.width)
        order
    in
    let restore () =
      List.iter (fun (i, x) -> st.pl.Placement.xs.(i) <- float_of_int x) original
    in
    (* the window is lifted for the whole trial and laid down again at
       wherever it ends up. Blockages and frozen cells are not listed among
       a row's occupants, so a window can straddle one: packing is sound
       only when its span is free with the window itself lifted. *)
    List.iter (release_cell st) ids;
    let reordered =
      Occupancy.is_free_span st.occ ~row ~height:1 ~x:span_start ~width:span_width
      &&
      let before = nets_hpwl st nets in
      let best = ref None in
      List.iter
        (fun perm ->
          place perm;
          let h = nets_hpwl st nets in
          restore ();
          match !best with
          | Some (_, bh) when bh <= h -> ()
          | Some _ | None -> if h < before -. 1e-9 then best := Some (perm, h))
        (permutations ids);
      match !best with
      | None -> false
      | Some (perm, _) ->
        place perm;
        true
    in
    List.iter
      (fun i ->
        let c, x, _ = cell_geom st i in
        Occupancy.occupy st.occ ~row ~height:1 ~x ~width:c.Cell.width)
      ids;
    reordered

let run ?obs (design : Design.t) (input : Placement.t) =
  let chip = design.Design.chip in
  let pl = Placement.copy input in
  let occ = Occupancy.of_design design in
  (* a partially-legal input no longer aborts the flow: the offending
     cells are frozen in place and skipped by every pass. Legal cells are
     occupied exactly first (any overlapping pair has its blamed member in
     the illegal set, so they never collide among themselves); the frozen
     cells' clamped spans are then laid down idempotently. *)
  let skip = Array.make (Design.num_cells design) false in
  let illegal = Legality.illegal_cells design input in
  List.iter (fun i -> skip.(i) <- true) illegal;
  Obs.add obs "refine/skipped_illegal" (List.length illegal);
  Array.iteri
    (fun i (c : Cell.t) ->
      if not skip.(i) then
        Occupancy.occupy occ
          ~row:(int_of_float pl.Placement.ys.(i))
          ~height:c.Cell.height
          ~x:(int_of_float pl.Placement.xs.(i))
          ~width:c.Cell.width)
    design.Design.cells;
  Array.iteri
    (fun i (c : Cell.t) ->
      if skip.(i) then begin
        let row =
          max 0
            (min
               (chip.Chip.num_rows - c.Cell.height)
               (int_of_float (Float.round pl.Placement.ys.(i))))
        in
        let x =
          max 0
            (min
               (chip.Chip.num_sites - c.Cell.width)
               (int_of_float (Float.round pl.Placement.xs.(i))))
        in
        Occupancy.mark occ ~row
          ~height:(min c.Cell.height chip.Chip.num_rows)
          ~x
          ~width:(min c.Cell.width chip.Chip.num_sites)
      end)
    design.Design.cells;
  let st =
    { design;
      pl;
      occ;
      nets_of = Netlist.nets_of_cell design.Design.nets;
      row_height = chip.Chip.row_height;
      skip }
  in
  let hpwl_before = Hpwl.total ~row_height:st.row_height design.Design.nets pl in
  let n = Design.num_cells design in
  (* deterministic visit order, shuffled by a tiny LCG *)
  let order = Array.init n (fun i -> i) in
  let lcg = ref order_seed in
  for i = n - 1 downto 1 do
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !lcg mod (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let moves = ref 0 and reorders = ref 0 in
  let passes_run = ref 0 in
  let improved = ref true in
  while !improved && !passes_run < passes do
    improved := false;
    incr passes_run;
    (* pass 1: global moves *)
    Array.iter
      (fun i ->
        if (not st.skip.(i)) && try_global_move st i then begin
          incr moves;
          improved := true
        end)
      order;
    (* pass 2: reorder windows of three consecutive single-height cells.
       A window is only valid when its cells are consecutive among *all*
       occupants of the row — a multi-row cell sitting between them would
       be plowed over by the contiguous repacking — and windows are
       disjoint so earlier reorders cannot invalidate later ones. *)
    let num_rows = chip.Chip.num_rows in
    (* every cell whose vertical span covers a row, bucketed once per pass
       in visit order (the reorders below move only the x of single-height
       cells homed in the row at hand, so the buckets stay exact), and
       stable-sorted by x when the row comes up *)
    let start = Array.make (num_rows + 1) 0 in
    let span i =
      let home = int_of_float st.pl.Placement.ys.(i) in
      (max 0 home, min num_rows (home + design.Design.cells.(i).Cell.height))
    in
    Array.iter
      (fun i ->
        let lo, hi = span i in
        for row = lo to hi - 1 do
          start.(row + 1) <- start.(row + 1) + 1
        done)
      order;
    for row = 1 to num_rows do
      start.(row) <- start.(row) + start.(row - 1)
    done;
    let next = Array.sub start 0 num_rows in
    let bucket = Array.make start.(num_rows) 0 in
    Array.iter
      (fun i ->
        let lo, hi = span i in
        for row = lo to hi - 1 do
          bucket.(next.(row)) <- i;
          next.(row) <- next.(row) + 1
        done)
      order;
    for row = 0 to num_rows - 1 do
      let occupants =
        Array.sub bucket start.(row) (start.(row + 1) - start.(row))
      in
      Array.stable_sort
        (fun a b -> Float.compare st.pl.Placement.xs.(a) st.pl.Placement.xs.(b))
        occupants;
      let is_single i =
        (not st.skip.(i))
        && design.Design.cells.(i).Cell.height = 1
        && int_of_float st.pl.Placement.ys.(i) = row
      in
      let rec windows = function
        | a :: b :: c :: rest when is_single a && is_single b && is_single c ->
          if try_reorder st [ a; b; c ] then begin
            incr reorders;
            improved := true
          end;
          windows rest
        | _ :: rest -> windows rest
        | [] -> ()
      in
      windows (Array.to_list occupants)
    done
  done;
  let hpwl_after = Hpwl.total ~row_height:st.row_height design.Design.nets pl in
  ( pl,
    { hpwl_before;
      hpwl_after;
      moves = !moves;
      reorders = !reorders;
      passes_run = !passes_run;
      skipped_cells = List.length illegal } )
