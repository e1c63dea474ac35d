open Mclh_linalg
open Mclh_circuit

type t = {
  m : int;
  bin_w : float;
  bin_h : float;
  bin_area : float;
  target : float;
  is_fixed : bool array;
  movable : float array;
  fixed : float array;
  rho : float array;
  psi : float array;
  ex : float array;
  ey : float array;
  plan : Fft.plan;
  buf : float array;  (* gather/scatter line, length m *)
  lambda : float array;  (* lambda.(u) = 2 (1 - cos (pi u / m)) *)
  w : float array;  (* w.(u) = pi u / m *)
  total_movable : float;
}

let overlap a0 a1 b0 b1 = Float.max 0.0 (Float.min a1 b1 -. Float.max a0 b0)

(* area-weighted spread of rectangle [x0,x1) x [y0,y1) over the grid;
   area outside the chip is dropped *)
let spread t acc ~x0 ~y0 ~x1 ~y1 =
  let m = t.m in
  let ix0 = max 0 (int_of_float (x0 /. t.bin_w)) in
  let ix1 = min (m - 1) (int_of_float ((x1 -. 1e-9) /. t.bin_w)) in
  let iy0 = max 0 (int_of_float (y0 /. t.bin_h)) in
  let iy1 = min (m - 1) (int_of_float ((y1 -. 1e-9) /. t.bin_h)) in
  for iy = iy0 to iy1 do
    let by0 = float_of_int iy *. t.bin_h in
    let cy = overlap y0 y1 by0 (by0 +. t.bin_h) in
    for ix = ix0 to ix1 do
      let bx0 = float_of_int ix *. t.bin_w in
      let a = overlap x0 x1 bx0 (bx0 +. t.bin_w) *. cy in
      acc.((iy * m) + ix) <- acc.((iy * m) + ix) +. a
    done
  done

(* bins sized for ~6 cells each: much finer and per-bin overflow never
   drops below its cell-granularity floor, much coarser and the field
   stops resolving local hot spots *)
let default_grid n =
  let s = sqrt (float_of_int (max 1 n) /. 6.0) in
  let m = ref 8 in
  while float_of_int !m < s && !m < 512 do
    m := !m * 2
  done;
  (* nearest power of two in log space, not the ceiling: just past a
     boundary the finer grid would quarter the cells per bin *)
  if !m > 8 && s < float_of_int !m /. sqrt 2.0 then !m / 2 else !m

let create ?grid ?(target = 1.0) ?fixed (design : Design.t) =
  let n = Design.num_cells design in
  let m = match grid with Some g -> g | None -> default_grid n in
  let plan = Fft.plan m in
  let is_fixed =
    match fixed with
    | None -> Array.make n false
    | Some f ->
      if Array.length f <> n then
        invalid_arg "Density.create: fixed length <> num_cells";
      Array.copy f
  in
  if target <= 0.0 then invalid_arg "Density.create: target <= 0";
  let chip = design.Design.chip in
  let fm = float_of_int m in
  let t =
    { m;
      bin_w = float_of_int chip.Chip.num_sites /. fm;
      bin_h = float_of_int chip.Chip.num_rows /. fm;
      bin_area =
        float_of_int chip.Chip.num_sites /. fm
        *. (float_of_int chip.Chip.num_rows /. fm);
      target;
      is_fixed;
      movable = Array.make (m * m) 0.0;
      fixed = Array.make (m * m) 0.0;
      rho = Array.make (m * m) 0.0;
      psi = Array.make (m * m) 0.0;
      ex = Array.make (m * m) 0.0;
      ey = Array.make (m * m) 0.0;
      plan;
      buf = Array.make m 0.0;
      lambda =
        Array.init m (fun u -> 2.0 *. (1.0 -. cos (Float.pi *. float_of_int u /. fm)));
      w = Array.init m (fun u -> Float.pi *. float_of_int u /. fm);
      total_movable =
        (let acc = ref 0.0 in
         Array.iter
           (fun (c : Cell.t) ->
             if not is_fixed.(c.Cell.id) then
               acc := !acc +. float_of_int (c.Cell.width * c.Cell.height))
           design.Design.cells;
         !acc);
    }
  in
  (* fixed pre-fill: blockages, then pinned cells at their global spot *)
  Array.iter
    (fun (b : Blockage.t) ->
      let x0 = float_of_int b.Blockage.x and y0 = float_of_int b.Blockage.row in
      spread t t.fixed ~x0 ~y0
        ~x1:(x0 +. float_of_int b.Blockage.width)
        ~y1:(y0 +. float_of_int b.Blockage.height))
    design.Design.blockages;
  Array.iter
    (fun (c : Cell.t) ->
      let i = c.Cell.id in
      if is_fixed.(i) then begin
        let x0 = design.Design.global.Placement.xs.(i)
        and y0 = design.Design.global.Placement.ys.(i) in
        spread t t.fixed ~x0 ~y0
          ~x1:(x0 +. float_of_int c.Cell.width)
          ~y1:(y0 +. float_of_int c.Cell.height)
      end)
    design.Design.cells;
  t

let grid t = t.m
let bin_w t = t.bin_w
let bin_h t = t.bin_h
let total_movable_area t = t.total_movable

let accumulate t (design : Design.t) (pl : Placement.t) =
  Array.fill t.movable 0 (t.m * t.m) 0.0;
  Array.iter
    (fun (c : Cell.t) ->
      let i = c.Cell.id in
      if not t.is_fixed.(i) then begin
        let x0 = pl.Placement.xs.(i) and y0 = pl.Placement.ys.(i) in
        spread t t.movable ~x0 ~y0
          ~x1:(x0 +. float_of_int c.Cell.width)
          ~y1:(y0 +. float_of_int c.Cell.height)
      end)
    design.Design.cells

(* in-place transform of every row (contiguous) of grid [g] *)
let rows_inplace t g f =
  let m = t.m in
  for iy = 0 to m - 1 do
    Array.blit g (iy * m) t.buf 0 m;
    f t.buf;
    Array.blit t.buf 0 g (iy * m) m
  done

(* in-place transform of every column of grid [g] *)
let cols_inplace t g f =
  let m = t.m in
  for ix = 0 to m - 1 do
    for iy = 0 to m - 1 do
      t.buf.(iy) <- g.((iy * m) + ix)
    done;
    f t.buf;
    for iy = 0 to m - 1 do
      g.((iy * m) + ix) <- t.buf.(iy)
    done
  done

let dct2_line t b = Fft.dct2 t.plan ~src:b ~dst:b
let idct2_line t b = Fft.idct2 t.plan ~src:b ~dst:b

(* b.(k) <- scale * dst3 (w.(k) * b.(k)) — the spectral derivative *)
let deriv_line t scale b =
  let m = t.m in
  for k = 0 to m - 1 do
    b.(k) <- b.(k) *. t.w.(k)
  done;
  Fft.dst3 t.plan ~src:b ~dst:b;
  for k = 0 to m - 1 do
    b.(k) <- b.(k) *. scale
  done

let solve t =
  let m = t.m in
  let mm = m * m in
  for k = 0 to mm - 1 do
    t.rho.(k) <- (t.movable.(k) +. t.fixed.(k)) /. t.bin_area
  done;
  (* forward 2-D DCT-II of rho into psi (kept: rho stays readable) *)
  Array.blit t.rho 0 t.psi 0 mm;
  rows_inplace t t.psi (dct2_line t);
  cols_inplace t t.psi (dct2_line t);
  (* pointwise divide by the stencil eigenvalues; DC removed *)
  t.psi.(0) <- 0.0;
  for iy = 0 to m - 1 do
    for ix = 0 to m - 1 do
      if ix <> 0 || iy <> 0 then begin
        let k = (iy * m) + ix in
        t.psi.(k) <- t.psi.(k) /. (t.lambda.(ix) +. t.lambda.(iy))
      end
    done
  done;
  (* field synthesis from the coefficients, before psi is inverted.
     E = -grad psi: differentiating the cosine basis along one axis
     turns idct2 into a weighted sine sum — (2/m) sum_{k>=1} w_k a_k
     sin(pi k (2i+1) / 2m) — divided by the bin pitch to express the
     slope per site (resp. per row). *)
  Array.blit t.psi 0 t.ex 0 mm;
  Array.blit t.psi 0 t.ey 0 mm;
  let fscale pitch = 2.0 /. (float_of_int m *. pitch) in
  cols_inplace t t.ex (idct2_line t);
  rows_inplace t t.ex (deriv_line t (fscale t.bin_w));
  rows_inplace t t.ey (idct2_line t);
  cols_inplace t t.ey (deriv_line t (fscale t.bin_h));
  (* potential in real space, for the residual check *)
  rows_inplace t t.psi (idct2_line t);
  cols_inplace t t.psi (idct2_line t)

let field_at t ~x ~y =
  let m = t.m in
  let pick g fx fy =
    let gx = Float.max 0.0 (Float.min (fx /. t.bin_w -. 0.5) (float_of_int m -. 1.0)) in
    let gy = Float.max 0.0 (Float.min (fy /. t.bin_h -. 0.5) (float_of_int m -. 1.0)) in
    let ix = min (m - 2) (max 0 (int_of_float gx))
    and iy = min (m - 2) (max 0 (int_of_float gy)) in
    let ix = if m = 1 then 0 else ix and iy = if m = 1 then 0 else iy in
    let tx = Float.max 0.0 (Float.min 1.0 (gx -. float_of_int ix))
    and ty = Float.max 0.0 (Float.min 1.0 (gy -. float_of_int iy)) in
    let at ix iy = g.((min (m - 1) iy * m) + min (m - 1) ix) in
    let v00 = at ix iy
    and v10 = at (ix + 1) iy
    and v01 = at ix (iy + 1)
    and v11 = at (ix + 1) (iy + 1) in
    ((v00 *. (1.0 -. tx)) +. (v10 *. tx)) *. (1.0 -. ty)
    +. (((v01 *. (1.0 -. tx)) +. (v11 *. tx)) *. ty)
  in
  (pick t.ex x y, pick t.ey x y)

let overflow t =
  Mclh_circuit.Density.area_overflow ~target:t.target ~bin_area:t.bin_area
    ~cell_area:t.movable ~blocked_area:t.fixed ~total:t.total_movable

let max_utilization t =
  let mx = ref 0.0 in
  for k = 0 to (t.m * t.m) - 1 do
    mx := Float.max !mx ((t.movable.(k) +. t.fixed.(k)) /. t.bin_area)
  done;
  !mx

let movable t = t.movable
let fixed_fill t = t.fixed
let charge t = t.rho
let potential t = t.psi
