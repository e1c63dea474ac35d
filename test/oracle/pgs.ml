open Mclh_linalg
open Mclh_lcp

type options = { relaxation : float; eps : float; max_iter : int }

let default_options = { relaxation = 1.0; eps = 1e-10; max_iter = 50_000 }

type outcome = {
  z : Vec.t;
  iterations : int;
  converged : bool;
  delta_inf : float;
}

let solve ?(options = default_options) ?z0 (p : Lcp.problem) =
  let { relaxation; eps; max_iter } = options in
  if relaxation <= 0.0 || relaxation >= 2.0 then
    invalid_arg "Pgs.solve: relaxation must lie in (0, 2)";
  let n = Lcp.dim p in
  let diag = Array.make n 0.0 in
  Csr.iter p.a (fun i j v -> if i = j then diag.(i) <- diag.(i) +. v);
  Array.iteri
    (fun i d ->
      if d <= 0.0 then
        invalid_arg (Printf.sprintf "Pgs.solve: nonpositive diagonal at %d" i))
    diag;
  let z =
    match z0 with
    | None -> Vec.zeros n
    | Some z0 ->
      if Vec.dim z0 <> n then invalid_arg "Pgs.solve: z0 dimension mismatch";
      Vec.map (fun v -> Float.max v 0.0) z0
  in
  let rec sweep k =
    let delta = ref 0.0 in
    for i = 0 to n - 1 do
      let row_dot = ref 0.0 in
      Csr.iter_row p.a i (fun j v -> row_dot := !row_dot +. (v *. z.(j)));
      let residual = p.q.(i) +. !row_dot in
      let candidate = z.(i) -. (relaxation *. residual /. diag.(i)) in
      let updated = Float.max 0.0 candidate in
      delta := Float.max !delta (Float.abs (updated -. z.(i)));
      z.(i) <- updated
    done;
    if !delta < eps then
      { z; iterations = k + 1; converged = true; delta_inf = !delta }
    else if k + 1 >= max_iter then
      { z; iterations = k + 1; converged = false; delta_inf = !delta }
    else sweep (k + 1)
  in
  sweep 0
