open Mclh_linalg
open Mclh_qp

type options = { tol : float; max_iter : int; sigma : float }

let default_options = { tol = 1e-9; max_iter = 200; sigma = 0.2 }

type outcome = {
  x : Vec.t;
  multipliers : Vec.t;
  bound_multipliers : Vec.t;
  iterations : int;
  converged : bool;
  duality_gap : float;
}

(* unified constraints G x >= h: the m rows of B, then the n bound rows *)
let apply_g (qp : Qp.t) x =
  let m = Qp.num_constraints qp and n = Qp.num_vars qp in
  let out = Array.make (m + n) 0.0 in
  let bx = Csr.mul_vec qp.b_mat x in
  Array.blit bx 0 out 0 m;
  Array.blit x 0 out m n;
  out

let apply_gt (qp : Qp.t) y =
  let m = Qp.num_constraints qp and n = Qp.num_vars qp in
  let out = Csr.mul_vec_t qp.b_mat (Array.sub y 0 m) in
  for j = 0 to n - 1 do
    out.(j) <- out.(j) +. y.(m + j)
  done;
  out

let h_vec (qp : Qp.t) =
  let m = Qp.num_constraints qp and n = Qp.num_vars qp in
  Vec.init (m + n) (fun i -> if i < m then qp.b_rhs.(i) else 0.0)

(* normal matrix Q + G^T D^-1 G, dense; D = diag(s ./ lambda) *)
let normal_matrix (qp : Qp.t) ~s ~lam =
  let m = Qp.num_constraints qp and n = Qp.num_vars qp in
  let a = Dense.create n n in
  Csr.iter qp.q_mat (fun i j v -> Dense.set a i j (Dense.get a i j +. v));
  (* B rows *)
  for i = 0 to m - 1 do
    let w = lam.(i) /. s.(i) in
    let row = Csr.row_entries qp.b_mat i in
    List.iter
      (fun (j1, v1) ->
        List.iter
          (fun (j2, v2) ->
            Dense.set a j1 j2 (Dense.get a j1 j2 +. (w *. v1 *. v2)))
          row)
      row
  done;
  (* bound rows are unit vectors *)
  for j = 0 to n - 1 do
    let w = lam.(m + j) /. s.(m + j) in
    Dense.set a j j (Dense.get a j j +. w)
  done;
  a

let solve ?(options = default_options) (qp : Qp.t) =
  let { tol; max_iter; sigma } = options in
  let m = Qp.num_constraints qp and n = Qp.num_vars qp in
  let k = m + n in
  let h = h_vec qp in
  let x = Vec.create n 1.0 in
  let s = Vec.create k 1.0 in
  let lam = Vec.create k 1.0 in
  let duality () = Vec.dot s lam /. float_of_int k in
  let residuals () =
    (* r_d = Qx + p - G^T lam;  r_p = Gx - h - s *)
    let r_d = Qp.gradient qp x in
    let gt = apply_gt qp lam in
    Vec.axpy (-1.0) gt r_d;
    let r_p = apply_g qp x in
    for i = 0 to k - 1 do
      r_p.(i) <- r_p.(i) -. h.(i) -. s.(i)
    done;
    (r_d, r_p)
  in
  let rec go iter =
    let r_d, r_p = residuals () in
    let mu = duality () in
    let res_inf = Float.max (Vec.norm_inf r_d) (Vec.norm_inf r_p) in
    if mu < tol && res_inf < Float.max tol (1e-7 *. Float.max 1.0 (Vec.norm_inf x))
    then
      { x = Vec.copy x;
        multipliers = Array.sub lam 0 m;
        bound_multipliers = Array.sub lam m n;
        iterations = iter;
        converged = true;
        duality_gap = mu }
    else if iter >= max_iter then
      { x = Vec.copy x;
        multipliers = Array.sub lam 0 m;
        bound_multipliers = Array.sub lam m n;
        iterations = iter;
        converged = false;
        duality_gap = mu }
    else begin
      (* Newton step on the perturbed KKT system *)
      let target = sigma *. mu in
      (* rhs for the normal system:
         (Q + G^T D^-1 G) dx = -r_d + G^T [ (lam/s) (-r_p) + (lam - target/s) ]
         derived from ds = G dx + r_p and
         dlam = -lam - (lam ds - target)/s . *)
      let y = Array.make k 0.0 in
      for i = 0 to k - 1 do
        y.(i) <- (lam.(i) /. s.(i) *. -.r_p.(i)) -. lam.(i) +. (target /. s.(i))
      done;
      let rhs = apply_gt qp y in
      Vec.axpy (-1.0) r_d rhs;
      (* note: rhs = G^T y - r_d *)
      let a = normal_matrix qp ~s ~lam in
      let dx =
        match Lu.solve_system a rhs with
        | dx -> dx
        | exception Lu.Singular _ ->
          (* near-degenerate iterates (lam/s ratios blowing up as the
             barrier vanishes) can make the normal matrix numerically
             singular. Escalate a diagonal shift scaled to the matrix
             magnitude until the factorization succeeds: an inexact
             Newton step only slows the IPM down, it cannot change the
             limit point. *)
          let scale = ref 1.0 in
          for j = 0 to n - 1 do
            scale := Float.max !scale (Float.abs (Dense.get a j j))
          done;
          let rec attempt reg =
            let a = normal_matrix qp ~s ~lam in
            for j = 0 to n - 1 do
              Dense.set a j j (Dense.get a j j +. (reg *. !scale))
            done;
            match Lu.solve_system a rhs with
            | dx -> dx
            | exception Lu.Singular _ when reg < 1e-2 ->
              attempt (reg *. 100.0)
          in
          attempt 1e-14
      in
      let g_dx = apply_g qp dx in
      let ds = Array.make k 0.0 and dlam = Array.make k 0.0 in
      for i = 0 to k - 1 do
        ds.(i) <- g_dx.(i) +. r_p.(i);
        dlam.(i) <- (target -. (lam.(i) *. ds.(i))) /. s.(i) -. lam.(i)
      done;
      (* fraction-to-boundary step *)
      let alpha = ref 1.0 in
      for i = 0 to k - 1 do
        if ds.(i) < 0.0 then alpha := Float.min !alpha (-.s.(i) /. ds.(i));
        if dlam.(i) < 0.0 then alpha := Float.min !alpha (-.lam.(i) /. dlam.(i))
      done;
      let alpha = 0.995 *. !alpha in
      let alpha = Float.min 1.0 alpha in
      Vec.axpy alpha dx x;
      Vec.axpy alpha ds s;
      Vec.axpy alpha dlam lam;
      go (iter + 1)
    end
  in
  go 0
