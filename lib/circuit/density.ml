type map = {
  bins_x : int;
  bins_y : int;
  bin_w : float;
  bin_h : float;
  utilization : float array;
  cell_area : float array;
  blocked_area : float array;
}

(* overlap of [a0, a1) with [b0, b1) *)
let overlap a0 a1 b0 b1 = Float.max 0.0 (Float.min a1 b1 -. Float.max a0 b0)

let spread_area ~bins_x ~bins_y ~bin_w ~bin_h acc ~x0 ~y0 ~x1 ~y1 =
  let ix0 = max 0 (int_of_float (x0 /. bin_w)) in
  let ix1 = min (bins_x - 1) (int_of_float ((x1 -. 1e-9) /. bin_w)) in
  let iy0 = max 0 (int_of_float (y0 /. bin_h)) in
  let iy1 = min (bins_y - 1) (int_of_float ((y1 -. 1e-9) /. bin_h)) in
  for iy = iy0 to iy1 do
    for ix = ix0 to ix1 do
      let bx0 = float_of_int ix *. bin_w and by0 = float_of_int iy *. bin_h in
      let a =
        overlap x0 x1 bx0 (bx0 +. bin_w) *. overlap y0 y1 by0 (by0 +. bin_h)
      in
      acc.((iy * bins_x) + ix) <- acc.((iy * bins_x) + ix) +. a
    done
  done

let map ?bins_x ?bins_y (d : Design.t) (pl : Placement.t) =
  let chip = d.Design.chip in
  let bins_x =
    match bins_x with
    | Some v ->
      if v < 1 then invalid_arg "Density.map: bins_x < 1";
      v
    | None -> max 1 (chip.Chip.num_sites / 16)
  in
  let bins_y =
    match bins_y with
    | Some v ->
      if v < 1 then invalid_arg "Density.map: bins_y < 1";
      v
    | None -> max 1 (chip.Chip.num_rows / 4)
  in
  let bin_w = float_of_int chip.Chip.num_sites /. float_of_int bins_x in
  let bin_h = float_of_int chip.Chip.num_rows /. float_of_int bins_y in
  let used = Array.make (bins_x * bins_y) 0.0 in
  let blocked = Array.make (bins_x * bins_y) 0.0 in
  Array.iter
    (fun (c : Cell.t) ->
      let i = c.Cell.id in
      let x0 = pl.Placement.xs.(i) and y0 = pl.Placement.ys.(i) in
      spread_area ~bins_x ~bins_y ~bin_w ~bin_h used ~x0 ~y0
        ~x1:(x0 +. float_of_int c.Cell.width)
        ~y1:(y0 +. float_of_int c.Cell.height))
    d.Design.cells;
  Array.iter
    (fun (b : Blockage.t) ->
      let x0 = float_of_int b.Blockage.x and y0 = float_of_int b.Blockage.row in
      spread_area ~bins_x ~bins_y ~bin_w ~bin_h blocked ~x0 ~y0
        ~x1:(x0 +. float_of_int b.Blockage.width)
        ~y1:(y0 +. float_of_int b.Blockage.height))
    d.Design.blockages;
  let bin_area = bin_w *. bin_h in
  let utilization =
    Array.init (bins_x * bins_y) (fun k ->
        let free = bin_area -. blocked.(k) in
        if free <= 1e-9 then 0.0 else used.(k) /. free)
  in
  { bins_x; bins_y; bin_w; bin_h; utilization; cell_area = used;
    blocked_area = blocked }

let get m ix iy =
  if ix < 0 || ix >= m.bins_x || iy < 0 || iy >= m.bins_y then
    invalid_arg "Density.get: bin out of range";
  m.utilization.((iy * m.bins_x) + ix)

type overflow = {
  max_utilization : float;
  mean_utilization : float;
  overflow_ratio : float;
  overflowed_bins : int;
}

(* a bin's capacity: its area at the target density, less what is
   blocked *)
let capacity ~target ~bin_area blocked = Float.max 0.0 ((target *. bin_area) -. blocked)

let area_overflow ~target ~bin_area ~cell_area ~blocked_area ~total =
  if total <= 0.0 then 0.0
  else begin
    let over = ref 0.0 in
    for k = 0 to Array.length cell_area - 1 do
      let cap = capacity ~target ~bin_area blocked_area.(k) in
      over := !over +. Float.max 0.0 (cell_area.(k) -. cap)
    done;
    !over /. total
  end

(* a map has at least one bin *)
let overflow ?(limit = 1.0) m =
  let sum = Array.fold_left ( +. ) 0.0 in
  let bin_area = m.bin_w *. m.bin_h in
  let over_bins = ref 0 in
  Array.iteri
    (fun k a ->
      if a > capacity ~target:limit ~bin_area m.blocked_area.(k) then incr over_bins)
    m.cell_area;
  { max_utilization = Array.fold_left Float.max 0.0 m.utilization;
    mean_utilization = sum m.utilization /. float_of_int (Array.length m.utilization);
    overflow_ratio =
      area_overflow ~target:limit ~bin_area ~cell_area:m.cell_area
        ~blocked_area:m.blocked_area ~total:(sum m.cell_area);
    overflowed_bins = !over_bins }

let row_utilization (d : Design.t) (pl : Placement.t) =
  let chip = d.Design.chip in
  let num_rows = chip.Chip.num_rows in
  let used = Array.make num_rows 0.0 in
  let blocked = Array.make num_rows 0.0 in
  Array.iter
    (fun (c : Cell.t) ->
      let i = c.Cell.id in
      let y0 = pl.Placement.ys.(i) in
      let w = float_of_int c.Cell.width in
      for r = 0 to num_rows - 1 do
        let cover =
          overlap y0 (y0 +. float_of_int c.Cell.height) (float_of_int r)
            (float_of_int (r + 1))
        in
        used.(r) <- used.(r) +. (w *. cover)
      done)
    d.Design.cells;
  Array.iter
    (fun (b : Blockage.t) ->
      for r = b.Blockage.row to b.Blockage.row + b.Blockage.height - 1 do
        blocked.(r) <- blocked.(r) +. float_of_int b.Blockage.width
      done)
    d.Design.blockages;
  Array.init num_rows (fun r ->
      let free = float_of_int chip.Chip.num_sites -. blocked.(r) in
      if free <= 1e-9 then 0.0 else used.(r) /. free)

let to_svg ?(pixels_per_bin = 24.0) m =
  let buf = Buffer.create 4096 in
  let w = float_of_int m.bins_x *. pixels_per_bin in
  let h = float_of_int m.bins_y *. pixels_per_bin in
  Printf.ksprintf (Buffer.add_string buf)
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" \
     viewBox=\"0 0 %.2f %.2f\">\n"
    w h w h;
  (* white -> blue for u in [0, 1); red beyond *)
  let color u =
    if u >= 1.0 then "#cc2222"
    else begin
      let t = Float.max 0.0 (Float.min 1.0 u) in
      let channel a b = int_of_float (a +. (t *. (b -. a))) in
      Printf.sprintf "#%02x%02x%02x" (channel 255. 31.) (channel 255. 78.)
        (channel 255. 156.)
    end
  in
  for iy = 0 to m.bins_y - 1 do
    for ix = 0 to m.bins_x - 1 do
      let u = m.utilization.((iy * m.bins_x) + ix) in
      let x = float_of_int ix *. pixels_per_bin in
      (* flip: row 0 at the bottom *)
      let y = float_of_int (m.bins_y - 1 - iy) *. pixels_per_bin in
      Printf.ksprintf (Buffer.add_string buf)
        "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
         fill=\"%s\"%s><title>bin (%d, %d): %.1f%%</title></rect>\n"
        x y pixels_per_bin pixels_per_bin (color u)
        (if u > 1.0 then " stroke=\"#000000\" stroke-width=\"1\"" else "")
        ix iy (100.0 *. u)
    done
  done;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let pp_histogram ppf m =
  let buckets = Array.make 11 0 in
  Array.iter
    (fun u ->
      let b = if u >= 1.0 then 10 else int_of_float (u *. 10.0) in
      buckets.(min 10 b) <- buckets.(min 10 b) + 1)
    m.utilization;
  let total = max 1 (Array.length m.utilization) in
  Format.fprintf ppf "@[<v 0>";
  Array.iteri
    (fun b count ->
      let label =
        if b = 10 then ">= 100%" else Printf.sprintf "%3d-%3d%%" (b * 10) ((b + 1) * 10)
      in
      let bar = String.make (60 * count / total) '#' in
      Format.fprintf ppf "%8s | %-60s %d@," label bar count)
    buckets;
  Format.fprintf ppf "@]"
