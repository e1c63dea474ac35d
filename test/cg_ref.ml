(* The allocating conjugate gradient that [Mclh_linalg.Cg.solve] replaced,
   kept verbatim as the oracle of the allocation-free loop: every
   iterate must come out bit for bit the same. *)

open Mclh_linalg

type outcome = {
  x : Vec.t;
  iterations : int;
  converged : bool;
  residual_norm : float;
}

let solve ?max_iter ?(tol = 1e-8) ?x0 ?jacobi ~dim apply ~b =
  if Vec.dim b <> dim then invalid_arg "Cg.solve: b dimension mismatch";
  let max_iter = match max_iter with Some v -> v | None -> (10 * dim) + 100 in
  let precond =
    match jacobi with
    | None -> fun r -> Vec.copy r
    | Some d ->
      if Vec.dim d <> dim then invalid_arg "Cg.solve: jacobi dimension";
      Array.iter
        (fun v -> if v <= 0.0 then invalid_arg "Cg.solve: jacobi not positive")
        d;
      fun r -> Vec.init dim (fun i -> r.(i) /. d.(i))
  in
  let x =
    match x0 with
    | None -> Vec.zeros dim
    | Some x0 ->
      if Vec.dim x0 <> dim then invalid_arg "Cg.solve: x0 dimension";
      Vec.copy x0
  in
  let r = Vec.sub b (apply x) in
  let z = precond r in
  let p = Vec.copy z in
  let rz = ref (Vec.dot r z) in
  let b_norm = Float.max (Vec.norm2 b) 1e-300 in
  let rec go k =
    let res = Vec.norm2 r in
    if res <= tol *. b_norm then
      { x; iterations = k; converged = true; residual_norm = res }
    else if k >= max_iter then
      { x; iterations = k; converged = false; residual_norm = res }
    else begin
      let ap = apply p in
      let p_ap = Vec.dot p ap in
      if p_ap <= 0.0 then
        (* loss of positive definiteness (numerical); stop with what we have *)
        { x; iterations = k; converged = false; residual_norm = res }
      else begin
        let alpha = !rz /. p_ap in
        Vec.axpy alpha p x;
        Vec.axpy (-.alpha) ap r;
        let z = precond r in
        let rz' = Vec.dot r z in
        let beta = rz' /. !rz in
        rz := rz';
        for i = 0 to dim - 1 do
          p.(i) <- z.(i) +. (beta *. p.(i))
        done;
        go (k + 1)
      end
    end
  in
  go 0
