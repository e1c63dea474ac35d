open Mclh_linalg

type operators = {
  dim : int;
  apply_a_into : Vec.t -> Vec.t -> unit;
  apply_n_into : Vec.t -> Vec.t -> unit;
  solve_m_omega_into : Vec.t -> Vec.t -> unit;
  chunks : int;
  region : int -> (int -> unit) -> unit;
}

let sequential k f =
  for c = 0 to k - 1 do
    f c
  done

let gamma = 2.0

type options = { eps : float; max_iter : int; accel : int }

let default_options = { eps = 1e-9; max_iter = 10_000; accel = 0 }

type outcome = {
  z : Vec.t;
  s : Vec.t;
  iterations : int;
  converged : bool;
  delta_inf : float;
}

let w_of_s ops s =
  if Vec.dim s <> ops.dim then invalid_arg "Mmsim.w_of_s: dimension mismatch";
  Vec.map (fun v -> (Float.abs v -. v) /. gamma) s

let validate ~name { eps; max_iter; accel } =
  if not (eps > 0.0 && Float.is_finite eps) then
    invalid_arg (name ^ ": eps must be positive and finite");
  if max_iter <= 0 then invalid_arg (name ^ ": max_iter must be positive");
  if accel < 0 then invalid_arg (name ^ ": accel must be >= 0")

(* Anderson (type II) acceleration state over the modulus fixed point
   s <- G(s). Keeps the last [depth] residual/step difference pairs
   (f_k - f_{k-1}, g_k - g_{k-1}) with f = G(s) - s, and extrapolates
   s_next = g - sum c_k dg_k where c minimizes ||f - DF c||_2.
   The Gram matrix DF^T DF persists across iterations: when the history
   rotates, entry (a, b) becomes (a + 1, b + 1), so a step computes only
   the new row <df_0, df_b> and costs O(depth n), not O(depth^2 n). Each
   entry is the same ascending-i sum of the same products a full
   recompute forms, so the iterates match it bit for bit. Everything is
   preallocated: the steady state stays at zero minor words per
   iteration, acceleration on or off. *)
type accel_state = {
  depth : int;
  hist_df : Vec.t array;
  hist_dg : Vec.t array;
  f : Vec.t; (* G(s) - s of the latest step *)
  g_prev : Vec.t;
  dfdf : float array;
      (* the Gram upper triangle, row-major [depth x depth]; entry (a, b)
         is current for a <= b < nhist *)
  gram : float array array; (* its copy that [solve_gram] factorizes *)
  bvec : float array;
  coef : float array;
  mutable nhist : int;
}

let make_accel depth n =
  { depth;
    hist_df = Array.init depth (fun _ -> Vec.zeros n);
    hist_dg = Array.init depth (fun _ -> Vec.zeros n);
    f = Vec.zeros n;
    g_prev = Vec.zeros n;
    dfdf = Array.make (depth * depth) 0.0;
    gram = Array.make_matrix depth depth 0.0;
    bvec = Array.make depth 0.0;
    coef = Array.make depth 0.0;
    nhist = 0 }

(* solve the [mk x mk] ridge-regularized normal equations in place
   (partial-pivot elimination); false when the pivot degenerates *)
let solve_gram st mk =
  let { gram; bvec; coef; _ } = st in
  let ridge = 1e-12 *. (1.0 +. gram.(0).(0)) in
  for a = 0 to mk - 1 do
    gram.(a).(a) <- gram.(a).(a) +. ridge
  done;
  let ok = ref true in
  for col = 0 to mk - 1 do
    let piv = ref col in
    for row = col + 1 to mk - 1 do
      if Float.abs gram.(row).(col) > Float.abs gram.(!piv).(col) then piv := row
    done;
    if Float.abs gram.(!piv).(col) < 1e-300 then ok := false
    else begin
      if !piv <> col then begin
        let tmp = gram.(col) in
        gram.(col) <- gram.(!piv);
        gram.(!piv) <- tmp;
        let tb = bvec.(col) in
        bvec.(col) <- bvec.(!piv);
        bvec.(!piv) <- tb
      end;
      for row = col + 1 to mk - 1 do
        let fct = gram.(row).(col) /. gram.(col).(col) in
        for cc = col to mk - 1 do
          gram.(row).(cc) <- gram.(row).(cc) -. (fct *. gram.(col).(cc))
        done;
        bvec.(row) <- bvec.(row) -. (fct *. bvec.(col))
      done
    end
  done;
  if !ok then
    for row = mk - 1 downto 0 do
      let acc = ref bvec.(row) in
      for cc = row + 1 to mk - 1 do
        acc := !acc -. (gram.(row).(cc) *. coef.(cc))
      done;
      coef.(row) <- !acc /. gram.(row).(row)
    done;
  !ok

(* largest admissible coefficient mass: beyond this the least-squares
   system is effectively singular and extrapolating from it stalls or
   oscillates, so the step falls back to plain G and the history resets *)
let coef_limit = 1e4

(* The accelerated advance over [st]: given the plain step [g] from the
   point [s] (with iteration number [k], 1-based), it writes the next
   iterate into [s], falling back to [s <- g] whenever the extrapolation
   is not trustworthy. Its vector passes run as regions: the elementwise
   ones over the ranges [bounds.(c) .. bounds.(c + 1) - 1], the Gram row
   and right-hand side over groups of four history columns, each entry
   one ascending-i sum over all of [0, n). The task closures are built
   here once, so an advance allocates nothing. *)
let accel_stepper st ~n ~bounds ~region =
  let { depth; hist_df; hist_dg; f; g_prev; dfdf; gram; bvec; coef; _ } = st in
  let chunks = Array.length bounds - 1 in
  let cur_s = ref f and cur_g = ref f and cur_mk = ref 0 in
  let first_task c =
    let s = !cur_s and g = !cur_g in
    for i = bounds.(c) to bounds.(c + 1) - 1 do
      f.(i) <- g.(i) -. s.(i);
      g_prev.(i) <- g.(i)
    done
  in
  let rotate_task c =
    let s = !cur_s and g = !cur_g in
    let last_df = hist_df.(0) and last_dg = hist_dg.(0) in
    for i = bounds.(c) to bounds.(c + 1) - 1 do
      let gi = g.(i) in
      let fi = gi -. s.(i) in
      last_df.(i) <- fi -. f.(i);
      last_dg.(i) <- gi -. g_prev.(i);
      f.(i) <- fi;
      g_prev.(i) <- gi
    done
  in
  let blit_task c =
    let lo = bounds.(c) in
    Array.blit !cur_g lo !cur_s lo (bounds.(c + 1) - lo)
  in
  (* the Gram matrix's new row <df_0, df_b> and the right-hand side
     <df_b, f> for the columns [4 t .. 4 t + 3]: four at once with eight
     local accumulators (OCaml keeps local float refs in registers; a
     float-array accumulator would sit in memory), one by one for a
     shorter group *)
  let dot_task t =
    let df0 = hist_df.(0) and b0 = 4 * t in
    if b0 + 4 <= !cur_mk then begin
      let x0 = hist_df.(b0) and x1 = hist_df.(b0 + 1)
      and x2 = hist_df.(b0 + 2) and x3 = hist_df.(b0 + 3) in
      let r0 = ref 0.0 and r1 = ref 0.0 and r2 = ref 0.0 and r3 = ref 0.0 in
      let h0 = ref 0.0 and h1 = ref 0.0 and h2 = ref 0.0 and h3 = ref 0.0 in
      for i = 0 to n - 1 do
        let d = df0.(i) and fi = f.(i) in
        let y0 = x0.(i) and y1 = x1.(i) and y2 = x2.(i) and y3 = x3.(i) in
        r0 := !r0 +. (d *. y0);
        h0 := !h0 +. (y0 *. fi);
        r1 := !r1 +. (d *. y1);
        h1 := !h1 +. (y1 *. fi);
        r2 := !r2 +. (d *. y2);
        h2 := !h2 +. (y2 *. fi);
        r3 := !r3 +. (d *. y3);
        h3 := !h3 +. (y3 *. fi)
      done;
      dfdf.(b0) <- !r0;
      bvec.(b0) <- !h0;
      dfdf.(b0 + 1) <- !r1;
      bvec.(b0 + 1) <- !h1;
      dfdf.(b0 + 2) <- !r2;
      bvec.(b0 + 2) <- !h2;
      dfdf.(b0 + 3) <- !r3;
      bvec.(b0 + 3) <- !h3
    end
    else
      for b = b0 to !cur_mk - 1 do
        let dfb = hist_df.(b) in
        let row = ref 0.0 and rhs = ref 0.0 in
        for i = 0 to n - 1 do
          row := !row +. (df0.(i) *. dfb.(i));
          rhs := !rhs +. (dfb.(i) *. f.(i))
        done;
        dfdf.(b) <- !row;
        bvec.(b) <- !rhs
      done
  in
  (* s = g - sum_j c_j dg_j, four dg vectors per pass; [s] is the
     running source after the first pass, so every entry keeps its
     j-ordered chain of differences *)
  let extrapolate_task c =
    let s = !cur_s and mk = !cur_mk in
    let lo = bounds.(c) and hi = bounds.(c + 1) - 1 in
    let src = ref !cur_g and j = ref 0 in
    while !j + 4 <= mk do
      let j0 = !j in
      let c0 = coef.(j0) and c1 = coef.(j0 + 1)
      and c2 = coef.(j0 + 2) and c3 = coef.(j0 + 3) in
      let v0 = hist_dg.(j0) and v1 = hist_dg.(j0 + 1)
      and v2 = hist_dg.(j0 + 2) and v3 = hist_dg.(j0 + 3) in
      let a = !src in
      for i = lo to hi do
        s.(i) <-
          a.(i) -. (c0 *. v0.(i)) -. (c1 *. v1.(i)) -. (c2 *. v2.(i))
          -. (c3 *. v3.(i))
      done;
      src := s;
      j := j0 + 4
    done;
    for j = !j to mk - 1 do
      let c = coef.(j) and v = hist_dg.(j) and a = !src in
      for i = lo to hi do
        s.(i) <- a.(i) -. (c *. v.(i))
      done;
      src := s
    done
  in
  fun ~k s g ->
    cur_s := s;
    cur_g := g;
    if k > 1 then begin
      (* rotate: recycle the oldest pair's buffers for the newest *)
      let last_df = hist_df.(depth - 1) and last_dg = hist_dg.(depth - 1) in
      for j = depth - 1 downto 1 do
        hist_df.(j) <- hist_df.(j - 1);
        hist_dg.(j) <- hist_dg.(j - 1)
      done;
      hist_df.(0) <- last_df;
      hist_dg.(0) <- last_dg;
      region chunks rotate_task;
      if st.nhist < depth then st.nhist <- st.nhist + 1;
      (* the cached triangle follows the rotation down the diagonal; the
         entries of the dropped oldest pair fall off the end *)
      for a = depth - 2 downto 0 do
        for b = depth - 2 downto a do
          dfdf.(((a + 1) * depth) + b + 1) <- dfdf.((a * depth) + b)
        done
      done
    end
    else region chunks first_task;
    let mk = st.nhist in
    cur_mk := mk;
    if mk = 0 then region chunks blit_task
    else begin
      region ((mk + 3) / 4) dot_task;
      for a = 0 to mk - 1 do
        for b = a to mk - 1 do
          let v = dfdf.((a * depth) + b) in
          gram.(a).(b) <- v;
          gram.(b).(a) <- v
        done
      done;
      if not (solve_gram st mk) then begin
        st.nhist <- 0;
        region chunks blit_task
      end
      else begin
        let cmag = ref 0.0 in
        for j = 0 to mk - 1 do
          cmag := !cmag +. Float.abs coef.(j)
        done;
        if Float.is_nan !cmag || !cmag > coef_limit then begin
          st.nhist <- 0;
          region chunks blit_task
        end
        else region chunks extrapolate_task
      end
    end

let solve ?(options = default_options) ?on_iter ?s0 ops ~q =
  validate ~name:"Mmsim.solve" options;
  let { eps; max_iter; accel } = options in
  let n = ops.dim in
  if Vec.dim q <> n then invalid_arg "Mmsim.solve: q dimension mismatch";
  if ops.chunks < 1 then invalid_arg "Mmsim.solve: chunks must be positive";
  let s =
    match s0 with
    | None -> Vec.zeros n
    | Some s0 ->
      if Vec.dim s0 <> n then invalid_arg "Mmsim.solve: s0 dimension mismatch";
      Vec.copy s0
  in
  let abs_s = Vec.zeros n in
  let rhs = Vec.zeros n in
  let a_abs = Vec.zeros n in
  let g = Vec.zeros n in
  (* [z] receives each step's iterate and [z_prev] holds the previous
     one; they swap after every step instead of copying *)
  let z = ref (Vec.zeros n) in
  let z_prev = ref (Vec.zeros n) in
  for i = 0 to n - 1 do
    !z_prev.(i) <- (Float.abs s.(i) +. s.(i)) /. gamma
  done;
  (* the loop's elementwise passes run as regions over [chunks] fixed
     ranges of [0, n); each entry is computed as in one sequential pass,
     so the ranges and the domains that run them never change a bit *)
  let chunks = ops.chunks and region = ops.region in
  let bounds = Array.init (chunks + 1) (fun c -> c * n / chunks) in
  let advance =
    if accel > 0 then Some (accel_stepper (make_accel accel n) ~n ~bounds ~region)
    else None
  in
  (* the plain path advances by swapping the [cur]/[nxt] buffers; the
     accelerated path writes its combination back into [cur] instead.
     [last] always names the buffer holding the newest plain step, which
     is what the outcome reports on every exit path. *)
  let cur = ref s and nxt = ref g in
  let last = ref g in
  let abs_task c =
    let s = !cur in
    for i = bounds.(c) to bounds.(c + 1) - 1 do
      abs_s.(i) <- Float.abs s.(i)
    done
  in
  let rhs_task c =
    for i = bounds.(c) to bounds.(c + 1) - 1 do
      rhs.(i) <- rhs.(i) +. abs_s.(i) -. a_abs.(i) -. (gamma *. q.(i))
    done
  in
  (* the stopping test's scan, one maximum and NaN flag per range; the
     maxima combine exactly in any order *)
  let c_delta = Array.make chunks 0.0 and c_delta_s = Array.make chunks 0.0
  and c_scale = Array.make chunks 1.0 and c_nan = Array.make chunks false in
  let scan_task c =
    let s = !cur and g = !nxt and z_new = !z and z_old = !z_prev in
    let delta = ref 0.0 and nan_seen = ref false in
    let delta_s = ref 0.0 and s_scale = ref 1.0 in
    for i = bounds.(c) to bounds.(c + 1) - 1 do
      let zi = (Float.abs g.(i) +. g.(i)) /. gamma in
      z_new.(i) <- zi;
      let d = Float.abs (zi -. z_old.(i)) in
      if Float.is_nan zi || Float.is_nan d then nan_seen := true
      else if d > !delta then delta := d;
      let ds = Float.abs (g.(i) -. s.(i)) in
      if ds > !delta_s then delta_s := ds;
      let a = Float.abs g.(i) in
      if a > !s_scale then s_scale := a
    done;
    c_delta.(c) <- !delta;
    c_delta_s.(c) <- !delta_s;
    c_scale.(c) <- !s_scale;
    c_nan.(c) <- !nan_seen
  in
  let iters = ref 0 in
  let converged = ref false and diverged = ref false in
  let delta_last = ref 0.0 in
  while (not !converged) && (not !diverged) && !iters < max_iter do
    incr iters;
    let s = !cur and g = !nxt in
    (* g := G(s), the plain modulus step:
       (M + I) g = N s + (I - A) |s| - gamma q *)
    region chunks abs_task;
    ops.apply_n_into s rhs;
    ops.apply_a_into abs_s a_abs;
    region chunks rhs_task;
    ops.solve_m_omega_into rhs g;
    last := g;
    (* the stopping test always judges the plain step: the z change plus
       stationarity of the modulus vector relative to its own scale, so
       acceleration changes how fast the fixed point is approached but
       never what "converged" means *)
    region chunks scan_task;
    let delta = ref 0.0 and nan_seen = ref false in
    let delta_s = ref 0.0 and s_scale = ref 1.0 in
    for c = 0 to chunks - 1 do
      if c_nan.(c) then nan_seen := true;
      if c_delta.(c) > !delta then delta := c_delta.(c);
      if c_delta_s.(c) > !delta_s then delta_s := c_delta_s.(c);
      if c_scale.(c) > !s_scale then s_scale := c_scale.(c)
    done;
    let z_new = !z in
    z := !z_prev;
    z_prev := z_new;
    delta_last := (if !nan_seen then Float.nan else !delta);
    (* the observer branch is allocation-free when [on_iter] is [None],
       preserving the zero-allocation steady state *)
    (match on_iter with None -> () | Some fn -> fn !iters !delta_last);
    if !nan_seen then diverged := true
    else if !delta < eps && !delta_s < eps *. !s_scale then converged := true
    else
      match advance with
      | None ->
        cur := g;
        nxt := s
      | Some advance -> advance ~k:!iters s g
  done;
  { z = Vec.copy !z_prev;
    s = Vec.copy !last;
    iterations = !iters;
    converged = !converged;
    delta_inf = !delta_last }
