open Mclh_linalg

(* The direct (non-iterative) backend of the per-shard solver chooser. It
   returns the same unknowns as the MMSIM path — the primal positions x,
   the ordering multipliers r, and an MMSIM-compatible modulus vector —
   so the dispatcher can swap backends per shard without any caller
   noticing. It also reports its own KKT residual; the dispatcher accepts
   a direct solve only when that residual clears [Config.direct_tol]
   relative to the solution scale, and otherwise falls back to MMSIM, so
   a backend misfire can cost time but never correctness. *)

type outcome = {
  x : Vec.t;
  r : Vec.t;
  modulus : Vec.t;
  residual : float;
}

(* With Omega = I the modulus identities z = (|s| + s) / gamma and
   w = (1/gamma)(|s| - s) invert to s = (gamma/2)(z - w): reconstructing
   s from an exact (z, w) pair lands a later MMSIM warm restart directly
   on its fixed point, which keeps the incremental engine's solution
   cache oblivious to which backend produced an entry. *)
let modulus_of (config : Config.t) (qp : Mclh_qp.Qp.t) ~x ~r =
  let n = Vec.dim x and m = Vec.dim r in
  let half_gamma = config.Config.gamma /. 2.0 in
  let u = Mclh_qp.Qp.gradient qp x in
  let btr = Csr.mul_vec_t qp.Mclh_qp.Qp.b_mat r in
  for i = 0 to n - 1 do
    u.(i) <- u.(i) -. btr.(i)
  done;
  let bx = Csr.mul_vec qp.Mclh_qp.Qp.b_mat x in
  Vec.init (n + m) (fun i ->
      if i < n then half_gamma *. (x.(i) -. u.(i))
      else
        half_gamma
        *. (r.(i - n) -. (bx.(i - n) -. qp.Mclh_qp.Qp.b_rhs.(i - n))))

(* ------------------------------------------------------------------ *)
(* chain-free isotonic projection                                      *)

(* Without equality chains Q~ = I and Problem (13) decouples into one
   tiny QP per ordering group:

     min sum (x_i - t_i)^2   s.t.  x_{i+1} - x_i >= w_i,  x >= 0

   with t = -p and w the required separations. When every w_i >= 0,
   x_0 >= 0 plus the chain already implies x_i >= 0, so substituting
   x_i = y_i + c_i (c = prefix sums of w) turns the feasible set into
   the isotone-nonnegative cone {y nondecreasing, y >= 0}, whose
   Euclidean projection is clip-after-pool: y = max(0, PAVA(t - c)).
   One O(n + m) pass, zero iterations, exact up to rounding. *)

let chain_free_applicable (model : Model.t) =
  Blocks.num_chains model.Model.blocks = 0
  && Array.for_all (fun w -> w >= 0.0) model.Model.b_rhs

(* pool-adjacent-violators: overwrite [u.(0 .. g-1)] with its projection
   onto the nondecreasing cone; [bsum]/[bcnt] are caller scratch (length
   >= g) holding the block stack *)
let pava u g bsum bcnt =
  let nb = ref 0 in
  for i = 0 to g - 1 do
    bsum.(!nb) <- u.(i);
    bcnt.(!nb) <- 1;
    incr nb;
    while
      !nb > 1
      && bsum.(!nb - 2) /. float_of_int bcnt.(!nb - 2)
         >= bsum.(!nb - 1) /. float_of_int bcnt.(!nb - 1)
    do
      bsum.(!nb - 2) <- bsum.(!nb - 2) +. bsum.(!nb - 1);
      bcnt.(!nb - 2) <- bcnt.(!nb - 2) + bcnt.(!nb - 1);
      decr nb
    done
  done;
  let i = ref 0 in
  for k = 0 to !nb - 1 do
    let mean = bsum.(k) /. float_of_int bcnt.(k) in
    for _ = 1 to bcnt.(k) do
      u.(!i) <- mean;
      incr i
    done
  done

let chain_free (config : Config.t) (model : Model.t) =
  let n = model.Model.nvars and m = Model.num_constraints model in
  (* variables outside every group (none are expected) keep the
     unconstrained clamp; groups overwrite their members below *)
  let x = Vec.init n (fun i -> Float.max 0.0 (-.model.Model.p.(i))) in
  let r = Vec.zeros m in
  let groups = model.Model.row_vars in
  let maxg =
    Array.fold_left (fun acc g -> max acc (Array.length g)) 1 groups
  in
  let u = Vec.zeros maxg and c = Vec.zeros maxg in
  let bsum = Vec.zeros maxg and bcnt = Array.make maxg 0 in
  (* [Model.build] emits each group's adjacent-pair constraints
     consecutively, left to right (see [Decompose.constraint_pairs]), so
     a running base recovers every constraint id *)
  let cons_base = ref 0 in
  Array.iter
    (fun group ->
      let g = Array.length group in
      if g > 0 then begin
        let base = !cons_base in
        c.(0) <- 0.0;
        for j = 1 to g - 1 do
          c.(j) <- c.(j - 1) +. model.Model.b_rhs.(base + j - 1)
        done;
        for j = 0 to g - 1 do
          u.(j) <- -.model.Model.p.(group.(j)) -. c.(j)
        done;
        pava u g bsum bcnt;
        for j = 0 to g - 1 do
          x.(group.(j)) <- Float.max 0.0 u.(j) +. c.(j)
        done;
        (* multipliers by right-to-left stationarity: where the pair
           constraint is slack, r_j = 0 (complementarity); where it is
           tight and x_{j+1} > 0, u_{j+1} = 0 forces
           r_j = x_{j+1} + p_{j+1} + r_{j+1}. The max 0 clamp only acts
           in degenerate ties (multiplier non-unique); the KKT-residual
           acceptance check catches any case this recurrence misjudges. *)
        let rnext = ref 0.0 in
        for j = g - 2 downto 0 do
          let slack =
            x.(group.(j + 1)) -. x.(group.(j)) -. model.Model.b_rhs.(base + j)
          in
          let rj =
            if slack > 1e-7 then 0.0
            else
              Float.max 0.0
                (x.(group.(j + 1)) +. model.Model.p.(group.(j + 1)) +. !rnext)
          in
          r.(base + j) <- rj;
          rnext := rj
        done;
        cons_base := base + g - 1
      end)
    groups;
  if !cons_base <> m then None
  else
    let qp = Model.to_qp model ~lambda:config.Config.lambda in
    Some
      { x;
        r;
        modulus = modulus_of config qp ~x ~r;
        residual = Mclh_qp.Kkt.kkt_residual qp ~x ~r }

(* scale-relative acceptance: a direct solve "agrees" when its KKT
   residual is small against the solution magnitude *)
let acceptable (config : Config.t) (out : outcome) =
  let scale = ref 0.0 in
  Array.iter (fun v -> if Float.abs v > !scale then scale := Float.abs v) out.x;
  Array.iter (fun v -> if Float.abs v > !scale then scale := Float.abs v) out.r;
  Float.is_finite out.residual
  && out.residual <= config.Config.direct_tol *. (1.0 +. !scale)
