type workspace = {
  x : Vec.t;
  r : Vec.t;
  z : Vec.t;
  p : Vec.t;
  ap : Vec.t;
}

let workspace dim =
  if dim < 0 then invalid_arg "Cg.workspace: negative dimension";
  { x = Vec.zeros dim; r = Vec.zeros dim; z = Vec.zeros dim;
    p = Vec.zeros dim; ap = Vec.zeros dim }

type outcome = {
  iterations : int;
  converged : bool;
  residual_norm : float;
}

(* The vector kernels are written out here rather than called from [Vec]:
   a float returned across a module boundary is boxed, and the loop below
   must not allocate. Each keeps [Vec]'s operation order (sums from 0.0
   in index order, [a *. x +. y] for axpy), so the iterates are the bits
   of the allocating formulation. *)

let[@inline] dot n x y =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

(* z <- r / d, or z <- r without a preconditioner *)
let precondition n jacobi r z =
  match jacobi with
  | None -> Array.blit r 0 z 0 n
  | Some d ->
    for i = 0 to n - 1 do
      z.(i) <- r.(i) /. d.(i)
    done

let solve ?max_iter ?(tol = 1e-8) ?x0 ?jacobi ws apply ~b =
  let dim = Vec.dim ws.x in
  if Vec.dim b <> dim then invalid_arg "Cg.solve: b dimension mismatch";
  let max_iter = match max_iter with Some v -> v | None -> (10 * dim) + 100 in
  (match jacobi with
  | None -> ()
  | Some d ->
    if Vec.dim d <> dim then invalid_arg "Cg.solve: jacobi dimension";
    Array.iter
      (fun v -> if v <= 0.0 then invalid_arg "Cg.solve: jacobi not positive")
      d);
  (match x0 with
  | None -> Vec.fill ws.x 0.0
  | Some x0 ->
    if Vec.dim x0 <> dim then invalid_arg "Cg.solve: x0 dimension";
    Array.blit x0 0 ws.x 0 dim);
  let { x; r; z; p; ap } = ws in
  apply x ap;
  for i = 0 to dim - 1 do
    r.(i) <- b.(i) -. ap.(i)
  done;
  precondition dim jacobi r z;
  Array.blit z 0 p 0 dim;
  let rz = ref (dot dim r z) in
  let b_norm = Float.max (sqrt (dot dim b b)) 1e-300 in
  let k = ref 0 and converged = ref false and stop = ref false in
  let res = ref 0.0 in
  while not !stop do
    res := sqrt (dot dim r r);
    if !res <= tol *. b_norm then begin
      converged := true;
      stop := true
    end
    else if !k >= max_iter then stop := true
    else begin
      apply p ap;
      let p_ap = dot dim p ap in
      if p_ap <= 0.0 then
        (* loss of positive definiteness (numerical); stop with what we have *)
        stop := true
      else begin
        let alpha = !rz /. p_ap in
        for i = 0 to dim - 1 do
          x.(i) <- (alpha *. p.(i)) +. x.(i)
        done;
        let neg_alpha = -.alpha in
        for i = 0 to dim - 1 do
          r.(i) <- (neg_alpha *. ap.(i)) +. r.(i)
        done;
        precondition dim jacobi r z;
        let rz' = dot dim r z in
        let beta = rz' /. !rz in
        rz := rz';
        for i = 0 to dim - 1 do
          p.(i) <- z.(i) +. (beta *. p.(i))
        done;
        incr k
      end
    end
  done;
  { iterations = !k; converged = !converged; residual_norm = !res }
