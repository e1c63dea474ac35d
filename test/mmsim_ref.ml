(* Test-only reference for the Anderson-accelerated MMSIM: the same loop
   as [Mmsim.solve], but the extrapolation recomputes the whole
   Gram matrix of the residual-difference history on every iteration,
   O(depth^2 n) per step. [Mmsim] caches that matrix across iterations
   instead; the two must produce bit-identical iterates. *)

open Mclh_linalg
open Mclh_lcp

type accel_state = {
  depth : int;
  hist_df : Vec.t array;
  hist_dg : Vec.t array;
  f : Vec.t;
  f_prev : Vec.t;
  g_prev : Vec.t;
  gram : float array array;
  bvec : float array;
  coef : float array;
  mutable nhist : int;
}

let make_accel depth n =
  { depth;
    hist_df = Array.init depth (fun _ -> Vec.zeros n);
    hist_dg = Array.init depth (fun _ -> Vec.zeros n);
    f = Vec.zeros n;
    f_prev = Vec.zeros n;
    g_prev = Vec.zeros n;
    gram = Array.make_matrix depth depth 0.0;
    bvec = Array.make depth 0.0;
    coef = Array.make depth 0.0;
    nhist = 0 }

(* ridge-regularized partial-pivot solve of the [mk x mk] normal
   equations; false when a pivot degenerates *)
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

let coef_limit = 1e4

(* the extrapolation with a full Gram recompute; true when it reset the
   history *)
let accel_advance st ~k ~n s g =
  let { depth; hist_df; hist_dg; f; f_prev; g_prev; gram; bvec; coef; _ } =
    st
  in
  if k > 1 then begin
    let last_df = hist_df.(depth - 1) and last_dg = hist_dg.(depth - 1) in
    for j = depth - 1 downto 1 do
      hist_df.(j) <- hist_df.(j - 1);
      hist_dg.(j) <- hist_dg.(j - 1)
    done;
    hist_df.(0) <- last_df;
    hist_dg.(0) <- last_dg;
    for i = 0 to n - 1 do
      let fi = g.(i) -. s.(i) in
      f.(i) <- fi;
      last_df.(i) <- fi -. f_prev.(i);
      last_dg.(i) <- g.(i) -. g_prev.(i)
    done;
    if st.nhist < depth then st.nhist <- st.nhist + 1
  end
  else
    for i = 0 to n - 1 do
      f.(i) <- g.(i) -. s.(i)
    done;
  Vec.blit ~src:f ~dst:f_prev;
  Vec.blit ~src:g ~dst:g_prev;
  let mk = st.nhist in
  let reset () =
    st.nhist <- 0;
    Vec.blit ~src:g ~dst:s;
    true
  in
  if mk = 0 then begin
    Vec.blit ~src:g ~dst:s;
    false
  end
  else begin
    for a = 0 to mk - 1 do
      for b = a to mk - 1 do
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. (hist_df.(a).(i) *. hist_df.(b).(i))
        done;
        gram.(a).(b) <- !acc;
        gram.(b).(a) <- !acc
      done;
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (hist_df.(a).(i) *. f.(i))
      done;
      bvec.(a) <- !acc
    done;
    if not (solve_gram st mk) then reset ()
    else begin
      let cmag = ref 0.0 in
      for j = 0 to mk - 1 do
        cmag := !cmag +. Float.abs coef.(j)
      done;
      if Float.is_nan !cmag || !cmag > coef_limit then reset ()
      else begin
        for i = 0 to n - 1 do
          let acc = ref g.(i) in
          for j = 0 to mk - 1 do
            acc := !acc -. (coef.(j) *. hist_dg.(j).(i))
          done;
          s.(i) <- !acc
        done;
        false
      end
    end
  end

(* [Mmsim.solve]'s loop over the reference extrapolation. Also
   returns the 1-based iterations whose extrapolation reset the
   history, ascending. *)
let solve ~(options : Mmsim.options) ?s0 (ops : Mmsim.operators) ~q =
  let { Mmsim.eps; max_iter; accel } = options and gamma = Mmsim.gamma in
  let n = ops.Mmsim.dim in
  let s = match s0 with None -> Vec.zeros n | Some s0 -> Vec.copy s0 in
  let abs_s = Vec.zeros n and rhs = Vec.zeros n and a_abs = Vec.zeros n in
  let g = Vec.zeros n and z = Vec.zeros n in
  let z_prev = Vec.init n (fun i -> (Float.abs s.(i) +. s.(i)) /. gamma) in
  let acc_state = if accel > 0 then Some (make_accel accel n) else None in
  let cur = ref s and nxt = ref g in
  let last = ref g in
  let iters = ref 0 and resets = ref [] in
  let converged = ref false and diverged = ref false in
  let delta_last = ref 0.0 in
  while (not !converged) && (not !diverged) && !iters < max_iter do
    incr iters;
    let s = !cur and g = !nxt in
    Vec.abs_into s abs_s;
    ops.Mmsim.apply_n_into s rhs;
    ops.Mmsim.apply_a_into abs_s a_abs;
    for i = 0 to n - 1 do
      rhs.(i) <-
        rhs.(i)
        +. abs_s.(i)
        -. a_abs.(i)
        -. (gamma *. q.(i))
    done;
    ops.Mmsim.solve_m_omega_into rhs g;
    last := g;
    let delta = ref 0.0 and nan_seen = ref false in
    let delta_s = ref 0.0 and s_scale = ref 1.0 in
    for i = 0 to n - 1 do
      let zi = (Float.abs g.(i) +. g.(i)) /. gamma in
      z.(i) <- zi;
      let d = Float.abs (zi -. z_prev.(i)) in
      if Float.is_nan zi || Float.is_nan d then nan_seen := true
      else if d > !delta then delta := d;
      let ds = Float.abs (g.(i) -. s.(i)) in
      if ds > !delta_s then delta_s := ds;
      let a = Float.abs g.(i) in
      if a > !s_scale then s_scale := a
    done;
    Vec.blit ~src:z ~dst:z_prev;
    delta_last := (if !nan_seen then Float.nan else !delta);
    if !nan_seen then diverged := true
    else if !delta < eps && !delta_s < eps *. !s_scale then converged := true
    else
      match acc_state with
      | None ->
        cur := g;
        nxt := s
      | Some st ->
        if accel_advance st ~k:!iters ~n s g then resets := !iters :: !resets
  done;
  ( { Mmsim.z = Vec.copy z;
      s = Vec.copy !last;
      iterations = !iters;
      converged = !converged;
      delta_inf = !delta_last },
    List.rev !resets )
