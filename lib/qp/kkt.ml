open Mclh_linalg

let to_lcp (qp : Qp.t) =
  let n = Qp.num_vars qp and m = Qp.num_constraints qp in
  let coo = Coo.create ~rows:(n + m) ~cols:(n + m) in
  Csr.iter qp.q_mat (fun i j v -> Coo.add coo i j v);
  Csr.iter qp.b_mat (fun i j v ->
      (* -B^T in the top-right block, B in the bottom-left block *)
      Coo.add coo j (n + i) (-.v);
      Coo.add coo (n + i) j v);
  let a = Coo.to_csr coo in
  let q =
    Vec.init (n + m) (fun i ->
        if i < n then qp.p.(i) else -.qp.b_rhs.(i - n))
  in
  Mclh_lcp.Lcp.make a q

let kkt_residual (qp : Qp.t) ~x ~r =
  let u = Qp.gradient qp x in
  (* u = Qx + p - B^T r *)
  let btr = Csr.mul_vec_t qp.b_mat r in
  Vec.axpy (-1.0) btr u;
  let v = Csr.mul_vec qp.b_mat x in
  Vec.axpy (-1.0) qp.b_rhs v;
  let worst = ref 0.0 in
  let bump value = worst := Float.max !worst value in
  Array.iter (fun value -> bump (-.value)) u;
  Array.iter (fun value -> bump (-.value)) v;
  Array.iter (fun value -> bump (-.value)) x;
  Array.iter (fun value -> bump (-.value)) r;
  Array.iteri (fun i value -> bump (Float.abs (value *. v.(i)))) r;
  Array.iteri (fun i value -> bump (Float.abs (value *. x.(i)))) u;
  !worst
