(* Test-only reference for the solver's MMSIM operators: the splitting
   (16) of [Solver.operators] built from the allocating [Blocks],
   [Tridiag] and [Csr] calls on an explicit ordering-constraint matrix,
   one fresh vector per product, with the bottom block solved by an
   unfactored Thomas sweep. The blit adapter at the end gives it the
   destination-passing [Mmsim.operators] shape, so the same
   [Mmsim.solve] loop runs both implementations and the production
   operators must reproduce its iterates bit for bit. *)

open Mclh_core
open Mclh_linalg

(* the ordering-constraint matrix of [groups] assembled entry by entry:
   one (-1, +1) row per adjacent pair, group by group *)
let csr_of_groups ~nvars groups =
  let m =
    Array.fold_left (fun acc vars -> acc + max 0 (Array.length vars - 1)) 0 groups
  in
  let coo = Coo.create ~rows:m ~cols:nvars in
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 2 do
        Coo.add coo !ci vars.(k) (-1.0);
        Coo.add coo !ci vars.(k + 1) 1.0;
        incr ci
      done)
    groups;
  Coo.to_csr coo

(* the sweeps a [Tridiag.factor] describes, as one sequential caller
   runs them; [b] and [dst] may be the same array *)
let solve_prefactored (f : Tridiag.factor) b dst =
  let n = Array.length f.Tridiag.f_denom in
  if n > 0 then begin
    dst.(0) <- b.(0) /. f.f_denom.(0);
    for i = 1 to n - 1 do
      dst.(i) <- (b.(i) -. (f.f_sub.(i - 1) *. dst.(i - 1))) /. f.f_denom.(i)
    done;
    for i = n - 2 downto 0 do
      dst.(i) <- dst.(i) -. (f.f_cprime.(i) *. dst.(i + 1))
    done
  end

let boxed (model : Model.t) (config : Config.t) =
  let n = model.Model.nvars and m = Model.num_constraints model in
  let b = csr_of_groups ~nvars:n model.Model.row_vars in
  let { Config.lambda; beta; theta; _ } = config in
  let d = Schur.tridiag model ~lambda in
  let d_over_theta = Tridiag.scale (1.0 /. theta) d in
  let bottom_solve_mat = Tridiag.add_scaled_identity d_over_theta 1.0 in
  let split z = (Array.sub z 0 n, Array.sub z n m) in
  let q_tilde_into x out =
    (* out := x + lambda E^T E x *)
    let ete_buf = Blocks.apply_ete model.blocks x in
    for i = 0 to n - 1 do
      out.(i) <- x.(i) +. (lambda *. ete_buf.(i))
    done
  in
  let apply_a z =
    let x, r = split z in
    let out = Vec.zeros (n + m) in
    let top = Array.sub out 0 n in
    q_tilde_into x top;
    Array.blit top 0 out 0 n;
    (* top -= B^T r *)
    let btr = Csr.mul_vec_t b r in
    for i = 0 to n - 1 do
      out.(i) <- out.(i) -. btr.(i)
    done;
    let bx = Csr.mul_vec b x in
    Array.blit bx 0 out n m;
    out
  in
  let apply_n z =
    let x, r = split z in
    let out = Vec.zeros (n + m) in
    let top = Vec.zeros n in
    q_tilde_into x top;
    let c = (1.0 /. beta) -. 1.0 in
    let btr = Csr.mul_vec_t b r in
    for i = 0 to n - 1 do
      out.(i) <- (c *. top.(i)) +. btr.(i)
    done;
    let dr = Tridiag.mul_vec d_over_theta r in
    Array.blit dr 0 out n m;
    out
  in
  let solve_m_omega rhs =
    let rhs_x = Array.sub rhs 0 n and rhs_r = Array.sub rhs n m in
    (* ((1/beta) Q~ + I) s_x = rhs_x, i.e. alpha I + coef E^T E with
       alpha = 1 + 1/beta and coef = lambda/beta *)
    let s_x =
      Blocks.solve_shifted ~alpha:(1.0 +. (1.0 /. beta))
        ~coef:(lambda /. beta) model.blocks rhs_x
    in
    (* ((1/theta) D + I) s_r = rhs_r - B s_x *)
    let bsx = Csr.mul_vec b s_x in
    for i = 0 to m - 1 do
      rhs_r.(i) <- rhs_r.(i) -. bsx.(i)
    done;
    let s_r =
      if m = 0 then [||] else Tridiag.solve bottom_solve_mat rhs_r
    in
    Array.append s_x s_r
  in
  (apply_a, apply_n, solve_m_omega)

let operators model config =
  let apply_a, apply_n, solve_m_omega = boxed model config in
  let dim = model.Model.nvars + Model.num_constraints model in
  { Mclh_lcp.Mmsim.dim;
    apply_a_into = (fun v dst -> Array.blit (apply_a v) 0 dst 0 dim);
    apply_n_into = (fun v dst -> Array.blit (apply_n v) 0 dst 0 dim);
    solve_m_omega_into =
      (fun rhs dst -> Array.blit (solve_m_omega rhs) 0 dst 0 dim);
    chunks = 1;
    region = Mclh_lcp.Mmsim.sequential }
