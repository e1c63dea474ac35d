module Dgrid = Density
open Mclh_linalg
open Mclh_circuit
module Obs = Mclh_obs.Obs

type options = {
  iterations : int;
  grid : int option;
  target_density : float;
  stop_overflow : float;
  fixed_cells : int list;
}

let default_options =
  { iterations = 24; grid = None; target_density = 1.0; stop_overflow = 0.10;
    fixed_cells = [] }

(* the anchor schedule: initial pull alpha, its growth per round (the
   growing density weight), the field step per round in bin pitches, and
   the CG tolerance of each axis solve *)
let anchor_weight = 0.01
let anchor_growth = 1.6
let step_bins = 1.0
let cg_tol = 1e-7

type round = {
  index : int;
  alpha : float;
  hpwl : float;
  overflow : float;
  max_utilization : float;
  cg_iterations : int;
  density_seconds : float;
}

type stats = {
  rounds : round list;
  final_hpwl : float;
  final_overflow : float;
  grid : int;
}

(* anchor weight pinning a fixed cell to design.global: large enough that
   the quadratic pull of any realistic net load is invisible *)
let pin_weight = 1e8

(* clique net model with edge weight 1/(k-1): build the Laplacian L (shared
   by x and y) and the pin-offset load vectors.

   For an edge (i, j, w) with pin offsets (di, dj) along one axis, the
   wirelength term w (x_i + di - x_j - dj)^2 contributes
     L[i,i] += w, L[j,j] += w, L[i,j] -= w, L[j,i] -= w
     b[i] += w (dj - di), b[j] += w (di - dj). *)
let add_edge coo load w i j di dj =
  if i <> j && w > 0.0 then begin
    Coo.add coo i i w;
    Coo.add coo j j w;
    Coo.add coo i j (-.w);
    Coo.add coo j i (-.w);
    load.(i) <- load.(i) +. (w *. (dj -. di));
    load.(j) <- load.(j) +. (w *. (di -. dj))
  end

(* fixed clique model: one shared Laplacian for both axes (the x/y loads
   differ through the pin offsets) *)
let build_clique (design : Design.t) =
  let n = Design.num_cells design in
  let coo = Coo.create ~rows:n ~cols:n in
  let bx = Vec.zeros n and by = Vec.zeros n in
  Netlist.iter design.nets (fun _ pins ->
      let k = Array.length pins in
      if k >= 2 then begin
        let w = 1.0 /. float_of_int (k - 1) in
        for a = 0 to k - 1 do
          for b = a + 1 to k - 1 do
            let pa = pins.(a) and pb = pins.(b) in
            (* the Laplacian entries are added once; both axis loads *)
            add_edge coo bx w pa.Netlist.cell pb.Netlist.cell pa.dx pb.dx;
            (* y load only (reuse the structure; weights already added) *)
            if pa.Netlist.cell <> pb.Netlist.cell then begin
              by.(pa.Netlist.cell) <- by.(pa.Netlist.cell) +. (w *. (pb.dy -. pa.dy));
              by.(pb.Netlist.cell) <- by.(pb.Netlist.cell) +. (w *. (pa.dy -. pb.dy))
            end
          done
        done
      end);
  (Coo.to_csr coo, bx, by)

let clamp_arrays (design : Design.t) xs ys =
  let chip = design.chip in
  Array.iteri
    (fun i (c : Cell.t) ->
      xs.(i) <-
        Float.max 0.0
          (Float.min xs.(i) (float_of_int (chip.Chip.num_sites - c.Cell.width)));
      ys.(i) <-
        Float.max 0.0
          (Float.min ys.(i) (float_of_int (chip.Chip.num_rows - c.Cell.height))))
    design.cells

let place ?(options = default_options) ?obs ?on_round (design : Design.t) =
  if options.iterations < 1 then invalid_arg "Gp.place: iterations < 1";
  let n = Design.num_cells design in
  let chip = design.chip in
  let rh = chip.Chip.row_height in
  if n = 0 then
    ( Placement.create 0,
      { rounds = []; final_hpwl = 0.0; final_overflow = 0.0; grid = 0 } )
  else
    Obs.span obs "gp/place" @@ fun () ->
    let fixed = Array.make n false in
    List.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Gp.place: fixed cell out of range";
        fixed.(i) <- true)
      options.fixed_cells;
    let dgrid =
      Dgrid.create ?grid:options.grid ~target:options.target_density ~fixed
        design
    in
    Obs.gauge obs "gp/grid" (float_of_int (Dgrid.grid dgrid));
    let ov_trace = Obs.new_trace obs "gp/overflow" ~capacity:256 in
    let laplacian, bx, by = build_clique design in
    let diag = Vec.zeros n in
    Csr.iter laplacian (fun i j v -> if i = j then diag.(i) <- diag.(i) +. v);
    (* initial anchors: chip center, with a deterministic sub-site stagger
       so the Laplacian's nullspace (connected components) is broken;
       pinned cells anchor at their given global position *)
    let cx = float_of_int chip.Chip.num_sites /. 2.0 in
    let cy = float_of_int chip.Chip.num_rows /. 2.0 in
    let ax =
      Vec.init n (fun i ->
          if fixed.(i) then design.global.Placement.xs.(i)
          else cx +. (0.001 *. float_of_int (i mod 101)))
    in
    let ay =
      Vec.init n (fun i ->
          if fixed.(i) then design.global.Placement.ys.(i)
          else cy +. (0.0005 *. float_of_int (i mod 89)))
    in
    let xs = Vec.copy ax and ys = Vec.copy ay in
    let alphas = Vec.zeros n in
    let fx = Vec.zeros n and fy = Vec.zeros n in
    let solve_axis ~anchors ~load current =
      let apply v =
        let out = Csr.mul_vec laplacian v in
        for i = 0 to n - 1 do
          out.(i) <- out.(i) +. (alphas.(i) *. v.(i))
        done;
        out
      in
      let b = Vec.init n (fun i -> load.(i) +. (alphas.(i) *. anchors.(i))) in
      let jacobi = Vec.init n (fun i -> Float.max 1e-12 diag.(i) +. alphas.(i)) in
      let r =
        Cg.solve ~tol:cg_tol ~x0:current ~jacobi ~dim:n apply ~b
      in
      (r.Cg.x, r.Cg.iterations)
    in
    let rounds = ref [] in
    let alpha = ref anchor_weight in
    let stop = ref false in
    let round_no = ref 0 in
    while (not !stop) && !round_no < options.iterations do
      incr round_no;
      for i = 0 to n - 1 do
        alphas.(i) <- (if fixed.(i) then pin_weight else !alpha)
      done;
      let x', itx = solve_axis ~anchors:ax ~load:bx xs in
      let y', ity = solve_axis ~anchors:ay ~load:by ys in
      Array.blit x' 0 xs 0 n;
      Array.blit y' 0 ys 0 n;
      (* pinned cells sit exactly at their given position (the huge anchor
         weight holds them there up to CG tolerance; make it exact) *)
      Array.iteri
        (fun i f ->
          if f then begin
            xs.(i) <- design.global.Placement.xs.(i);
            ys.(i) <- design.global.Placement.ys.(i)
          end)
        fixed;
      clamp_arrays design xs ys;
      let pl = Placement.make ~xs ~ys in
      let hpwl = Hpwl.total ~row_height:rh design.nets pl in
      (* density step: bin the placement, solve the potential, read the
         field at every movable cell center *)
      let t0 = Mclh_par.Clock.now () in
      Dgrid.accumulate dgrid design pl;
      Dgrid.solve dgrid;
      Array.iteri
        (fun i (c : Cell.t) ->
          if fixed.(i) then begin
            fx.(i) <- 0.0;
            fy.(i) <- 0.0
          end
          else begin
            let ex, ey =
              Dgrid.field_at dgrid
                ~x:(xs.(i) +. (float_of_int c.Cell.width /. 2.0))
                ~y:(ys.(i) +. (float_of_int c.Cell.height /. 2.0))
            in
            fx.(i) <- ex;
            fy.(i) <- ey
          end)
        design.cells;
      let ov = Dgrid.overflow dgrid in
      let max_util = Dgrid.max_utilization dgrid in
      let density_seconds = Mclh_par.Clock.now () -. t0 in
      let r =
        { index = !round_no; alpha = !alpha; hpwl; overflow = ov;
          max_utilization = max_util; cg_iterations = itx + ity;
          density_seconds }
      in
      rounds := r :: !rounds;
      Obs.incr obs "gp/rounds";
      Obs.add obs "gp/cg_iterations" (itx + ity);
      Obs.record_span obs "gp/density" density_seconds;
      (match ov_trace with Some tr -> Mclh_obs.Trace.record tr ov | None -> ());
      (match on_round with Some f -> f r pl | None -> ());
      if ov <= options.stop_overflow then stop := true
      else begin
        (* next anchors: each movable cell's position pushed one field
           step toward sparser bins, normalized so the strongest push
           moves [step_bins] bin pitches; clamped so no anchor asks a
           cell to leave the chip *)
        let mex = ref 0.0 and mey = ref 0.0 in
        for i = 0 to n - 1 do
          mex := Float.max !mex (Float.abs fx.(i));
          mey := Float.max !mey (Float.abs fy.(i))
        done;
        let mux =
          if !mex > 0.0 then step_bins *. Dgrid.bin_w dgrid /. !mex else 0.0
        and muy =
          if !mey > 0.0 then step_bins *. Dgrid.bin_h dgrid /. !mey else 0.0
        in
        Array.iteri
          (fun i f ->
            if not f then begin
              ax.(i) <- xs.(i) +. (mux *. fx.(i));
              ay.(i) <- ys.(i) +. (muy *. fy.(i))
            end)
          fixed;
        clamp_arrays design ax ay
      end;
      alpha := !alpha *. anchor_growth
    done;
    let final =
      let xs' = Vec.copy xs and ys' = Vec.copy ys in
      clamp_arrays design xs' ys';
      Placement.make ~xs:xs' ~ys:ys'
    in
    let final_overflow =
      match !rounds with r :: _ -> r.overflow | [] -> 0.0
    in
    let final_hpwl = Hpwl.total ~row_height:rh design.nets final in
    Obs.gauge obs "gp/final_hpwl" final_hpwl;
    Obs.gauge obs "gp/final_overflow" final_overflow;
    ( final,
      { rounds = List.rev !rounds; final_hpwl; final_overflow;
        grid = Dgrid.grid dgrid } )
