open Mclh_linalg

(* the paper's start: z_0 at the global-placement positions *)
let plain_start (model : Model.t) =
  let n = model.nvars in
  let s0 = Vec.zeros (n + Model.num_constraints model) in
  for i = 0 to n - 1 do
    s0.(i) <- Mclh_lcp.Mmsim.gamma /. 2.0 *. -.model.p.(i)
  done;
  s0

(* Without equality chains Q~ = I and Problem (13) decouples into one
   PlaceRow problem per ordering group. With nonnegative separations the
   per-row solve below is that problem's exact optimum (Sec 5.3), so the
   assembled s_0 is the LCP fixed point. *)
let exact (model : Model.t) =
  Blocks.num_chains model.blocks = 0
  && Array.for_all (fun w -> w >= 0.0) model.b_rhs

(* The per-group "widths" fed to PlaceRow are the required separations of
   Model.b_rhs (the left cell's width, corrected by the blockage-segment
   shift difference). A separation can degenerate to <= 0 when shifts
   differ wildly; clamp — it only blunts the warm start, never correctness. *)
let row_cells (model : Model.t) vars ~base =
  let k = Array.length vars in
  Array.mapi
    (fun idx v ->
      { Abacus.target = -.model.p.(v);
        width =
          (if idx < k - 1 then Float.max 1e-6 model.b_rhs.(base + idx)
           else 1.0) })
    vars

let positions (model : Model.t) =
  let x0 = Array.make model.nvars 0.0 in
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      if Array.length vars > 0 then begin
        let base = !ci in
        ci := !ci + (Array.length vars - 1);
        let xs = Abacus.place_row (row_cells model vars ~base) in
        Array.iteri (fun idx v -> x0.(v) <- xs.(idx)) vars
      end)
    model.row_vars;
  (* the per-row solves give a multi-row cell different positions in each
     row; averaging restores E x_0 = 0 exactly, so the (large) lambda
     penalty contributes no residual at the start. The small ordering
     violations the averaging may introduce are local and cheap for the
     MMSIM to repair — unlike a lambda-sized chain residual. *)
  Blocks.average_into model.blocks x0;
  x0

let multipliers (model : Model.t) x0 =
  let m = Model.num_constraints model in
  let r0 = Array.make m 0.0 in
  (* constraint indices follow Model.build: row by row, left to right *)
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      let k = Array.length vars in
      if k > 1 then begin
        let base = !ci in
        ci := !ci + (k - 1);
        (* stationarity at interior vars: r_left = (u - u') + r_right;
           a slack constraint carries no force *)
        let r_right = ref 0.0 in
        for idx = k - 1 downto 1 do
          let v = vars.(idx) and u = vars.(idx - 1) in
          let slack = x0.(v) -. x0.(u) -. model.b_rhs.(base + idx - 1) in
          let r =
            if slack > 1e-9 then 0.0
            else Float.max 0.0 (x0.(v) +. model.p.(v) +. !r_right)
          in
          r0.(base + idx - 1) <- r;
          r_right := r
        done
      end)
    model.row_vars;
  assert (!ci = m);
  r0

let modulus_vector (model : Model.t) ops =
  let n = model.nvars and m = Model.num_constraints model in
  let x0 = positions model in
  let r0 = multipliers model x0 in
  let z0 = Array.append x0 r0 in
  (* w_0 = A z_0 + q; keeping only its positive part preserves z where
     complementarity is slightly violated at the warm start *)
  let w0 = Vec.zeros (n + m) in
  ops.Mclh_lcp.Mmsim.apply_a_into z0 w0;
  let q = Model.lcp_rhs model in
  Vec.init (n + m) (fun i ->
      Mclh_lcp.Mmsim.gamma /. 2.0
      *. (z0.(i) -. Float.max 0.0 (w0.(i) +. q.(i))))
