open Mclh_linalg

type backend_stats = { fallbacks : int }

type result = {
  x : Vec.t;
  r : Vec.t;
  modulus : Vec.t;
  iterations : int;
  iterations_total : int;
  converged : bool;
  delta_inf : float;
  mismatch : float;
  components : int;
  largest_dim : int;
  backends : backend_stats;
}

type bound_check = { mu_max : float; theta_limit : float; theta_ok : bool }

let rhs_q = Model.lcp_rhs

(* the MMSIM operators of the splitting (16), allocation-free: every
   intermediate lives in scratch allocated once here, so one iteration is
   an arrowhead solve per chain plus one Thomas sweep over prefactored
   pivots *)
let operators (model : Model.t) (config : Config.t) =
  let n = model.nvars and m = Model.num_constraints model in
  let b = Model.b_mat model in
  let { Config.lambda; beta; theta; _ } = config in
  let d = Schur.tridiag model ~lambda in
  let d_over_theta = Tridiag.scale (1.0 /. theta) d in
  let bottom_factor =
    Tridiag.prefactor (Tridiag.add_scaled_identity d_over_theta 1.0)
  in
  let xbuf = Vec.zeros n and rbuf = Vec.zeros m in
  let ete_buf = Vec.zeros n in
  let btr = Vec.zeros n and bx = Vec.zeros m in
  let dr = Vec.zeros m in
  let split z =
    Array.blit z 0 xbuf 0 n;
    Array.blit z n rbuf 0 m
  in
  let q_tilde_into x out =
    Blocks.apply_ete_into model.blocks x ete_buf;
    for i = 0 to n - 1 do
      out.(i) <- x.(i) +. (lambda *. ete_buf.(i))
    done
  in
  let apply_a_into z dst =
    split z;
    q_tilde_into xbuf dst;
    Csr.mul_vec_t_into b rbuf btr;
    for i = 0 to n - 1 do
      dst.(i) <- dst.(i) -. btr.(i)
    done;
    Csr.mul_vec_into b xbuf bx;
    Array.blit bx 0 dst n m
  in
  let c_top = (1.0 /. beta) -. 1.0 in
  (* at beta = 1 (the accelerated attempt) the Q~ x term vanishes: on
     finite iterates [c_top *. Q~x] is +-0 and B^T r is never -0, so
     skipping the product leaves every bit as it was *)
  let apply_n_into z dst =
    split z;
    Csr.mul_vec_t_into b rbuf btr;
    if c_top = 0.0 then Array.blit btr 0 dst 0 n
    else begin
      q_tilde_into xbuf dst;
      for i = 0 to n - 1 do
        dst.(i) <- (c_top *. dst.(i)) +. btr.(i)
      done
    end;
    if m > 0 then begin
      Tridiag.mul_vec_into d_over_theta rbuf dr;
      Array.blit dr 0 dst n m
    end
  in
  let alpha = 1.0 +. (1.0 /. beta) and coef = lambda /. beta in
  let solve_m_omega_into rhs dst =
    split rhs;
    (* top: ((1/beta) Q~ + I) s_x = rhs_x, i.e. alpha I + coef E^T E,
       solved per chain *)
    Blocks.solve_shifted_into ~alpha ~coef model.blocks xbuf xbuf;
    Array.blit xbuf 0 dst 0 n;
    (* bottom: ((1/theta) D + I) s_r = rhs_r - B s_x *)
    if m > 0 then begin
      Csr.mul_vec_into b xbuf bx;
      for i = 0 to m - 1 do
        rbuf.(i) <- rbuf.(i) -. bx.(i)
      done;
      Tridiag.solve_prefactored bottom_factor rbuf rbuf;
      Array.blit rbuf 0 dst n m
    end
  in
  { Mclh_lcp.Mmsim.dim = n + m;
    apply_a_into;
    apply_n_into;
    solve_m_omega_into;
    omega_diag = Vec.create (n + m) 1.0 }

let gamma_operator (model : Model.t) (config : Config.t) =
  let m = Model.num_constraints model in
  let b = Model.b_mat model in
  let d = Schur.tridiag model ~lambda:config.Config.lambda in
  fun v ->
    let t1 = Csr.mul_vec_t b v in
    let t2 =
      Blocks.solve_shifted ~alpha:1.0 ~coef:config.Config.lambda model.blocks t1
    in
    let t3 = Csr.mul_vec b t2 in
    if m = 0 then t3 else Tridiag.solve_pivoting d t3

let check_bound (model : Model.t) (config : Config.t) =
  let m = Model.num_constraints model in
  if m = 0 then { mu_max = 0.0; theta_limit = infinity; theta_ok = true }
  else begin
    let apply = gamma_operator model config in
    let est = Eig.power_iteration ~max_iter:300 ~tol:1e-7 ~dim:m apply in
    let mu_max = Float.max est.Eig.value 1e-12 in
    let beta = config.Config.beta in
    let theta_limit = 2.0 *. (2.0 -. beta) /. (beta *. mu_max) in
    { mu_max; theta_limit; theta_ok = config.Config.theta < theta_limit }
  end

module Obs = Mclh_obs.Obs
module Trace = Mclh_obs.Trace

(* convergence traces keep the tail of the iteration history; enough to
   see the terminal behaviour without unbounded memory on long runs *)
let trace_capacity = 512

(* Splitting constants for the accelerated attempt. The paper's beta =
   theta = 0.5 are chosen so that plain Algorithm 1 provably contracts
   (Theorem 2 with headroom); under Anderson acceleration the binding
   concern is G-evaluation count, and (1.0, 0.4) measures 8-40% fewer
   evaluations across the bench designs (140 vs 151 on matrix_mult_1,
   314 vs 367 on des_perf_1, both at scale 0.04). The modulus fixed
   point depends only on Omega and gamma, never on the M/N split, so the
   tuned attempt converges to the same solution as the theta/2 retry
   that rescues a failed one.

   The tuned splitting trades a little late-stage smoothness for speed:
   its accelerated iterate-change floor sits around 2e-12 on the bench
   designs, so a caller asking for eps at or below that would burn the
   whole budget without converging. Below [accel_eps_floor] the attempt
   keeps the caller's own splitting, where acceleration reaches 1e-12
   comfortably. *)
let accel_beta = 1.0

let accel_theta = 0.4

let accel_eps_floor = 1e-10

(* Anderson history depth of the accelerated attempt *)
let accel_depth = 8

let accel_config (config : Config.t) =
  if config.eps >= accel_eps_floor then
    { config with beta = accel_beta; theta = accel_theta }
  else config

(* one solve of [model] as a single LCP, the core of every shard's
   solve: Anderson-accelerated MMSIM, and if that fails, one accelerated
   retry from the same start at the config's beta with theta halved —
   Theorem 2's lever: a small enough theta contracts. Iterations add up
   across the two attempts, so reported work never hides a rescue.

   The retry depends only on the shard's own content and the config —
   never on timing, the domain count, or whether obs is attached — so
   decomposed solves stay bit-identical across pool sizes.

   A caller-supplied [s0] (incremental warm restart) replaces the
   PlaceRow warm start, except on a shard where [Warm_start.exact]
   holds: that shard starts from the PlaceRow fixed point whatever [s0]
   says, and the MMSIM's own stopping test certifies it in one
   iteration. *)
let solve_raw ?on_iter ?s0 (config : Config.t) (model : Model.t) =
  let n = model.nvars and m = Model.num_constraints model in
  let q = rhs_q model in
  let exact_start = Warm_start.exact model in
  let mmsim (cfg : Config.t) =
    let ops = operators model cfg in
    let options =
      { Mclh_lcp.Mmsim.default_options with
        eps = cfg.eps;
        max_iter = cfg.max_iter;
        accel = accel_depth }
    in
    let s0 =
      match s0 with
      | Some s0 when not exact_start -> s0
      | _ -> Warm_start.modulus_vector model ops
    in
    Mclh_lcp.Mmsim.solve ~options ?on_iter ~s0 ops ~q
  in
  let first = mmsim (accel_config config) in
  let out, spent, fallbacks =
    if first.Mclh_lcp.Mmsim.converged then (first, 0, 0)
    else
      ( mmsim { config with theta = config.theta /. 2.0 },
        first.Mclh_lcp.Mmsim.iterations,
        1 )
  in
  (Array.sub out.Mclh_lcp.Mmsim.z 0 n, Array.sub out.Mclh_lcp.Mmsim.z n m,
   out.Mclh_lcp.Mmsim.s, spent + out.Mclh_lcp.Mmsim.iterations,
   out.Mclh_lcp.Mmsim.converged, out.Mclh_lcp.Mmsim.delta_inf, fallbacks)

type fan_in = {
  max_iterations : int;
  total_iterations : int;
  all_converged : bool;
  max_delta : float;
  fallbacks : int;
}

(* The one per-shard fan-out. Independent sub-LCPs go over the domain
   pool; each job materializes its sub-model ([Decompose.extract], the
   model itself for a shard covering the whole model) and converges on its own
   schedule. Shard contents are fixed by the model alone, so any pool
   size produces the same bits. A lone shard runs on the calling thread.
   Nested entries (Fence territories, bench fan-out, concurrent serve
   sessions) find the pool busy and fall back to a sequential loop with
   identical results. *)
let solve_shards ?on_trace ?s0 (config : Config.t) (model : Model.t) shards ~x ~r
    ~modulus =
  let ns = Array.length shards in
  (* dispatch heaviest shards first: pool members pull shards in this
     order, so a size-descending order trims the makespan. The order
     affects scheduling only, never the per-shard bits. *)
  let order = Array.init ns Fun.id in
  Array.sort
    (fun i j ->
      let di = Decompose.shard_dim shards.(i)
      and dj = Decompose.shard_dim shards.(j) in
      if di <> dj then Int.compare dj di else Int.compare i j)
    order;
  (* per-shard outcomes land in slots indexed by shard id; solution
     slices scatter straight into the caller's global vectors. Every
     write is disjoint across shards (the vars/cons sets partition), so
     concurrent jobs never touch the same entry and the fan-in below only
     folds scalars, in shard-id order. *)
  let outs = Array.make ns None in
  let completed = Atomic.make 0 in
  let progress_step = max 1 (ns / 20) in
  let heartbeat = config.progress && ns = 1 in
  let solve_shard i =
    let shard = shards.(i) in
    (* each pool job records into its own trace; [on_trace] hands them to
       the caller after fan-in (recorders are not thread-safe, see
       {!Mclh_obs.Obs}) *)
    let tr = Option.map (fun _ -> Trace.create ~capacity:trace_capacity) on_trace in
    let on_iter =
      if Option.is_none tr && not heartbeat then None
      else
        Some
          (fun k d ->
            (match tr with Some tr -> Trace.record tr d | None -> ());
            if heartbeat && k mod 500 = 0 then
              Printf.eprintf "[mclh] mmsim: iteration %d (delta %.2e)\n%!" k d)
    in
    let sx, sr, ss, it, conv, dinf, fbk =
      solve_raw ?on_iter
        ?s0:(Option.map (Decompose.restrict model shard) s0)
        config
        (Decompose.extract model shard)
    in
    Decompose.scatter_vars shard sx x;
    Decompose.scatter_cons shard sr r;
    Decompose.scatter model shard ss modulus;
    outs.(i) <- Some (it, conv, dinf, fbk, tr);
    if config.progress then begin
      let k = Atomic.fetch_and_add completed 1 + 1 in
      if k mod progress_step = 0 || k = ns then
        Printf.eprintf "[mclh] solve: %d/%d shards done\n%!" k ns
    end
  in
  let pool =
    if ns > 1 then Some (Mclh_par.Pool.get ~num_domains:config.num_domains)
    else None
  in
  (match pool with
  | Some pool when not (Mclh_par.Pool.oversubscribed pool) ->
    Mclh_par.Pool.parallel_iter pool solve_shard order
  | Some _ | None ->
    (* on an oversubscribed pool (more domains than cores) fan-out only
       adds GC-rendezvous stalls; same bits either way *)
    Array.iter solve_shard order);
  let fan =
    ref
      { max_iterations = 0;
        total_iterations = 0;
        all_converged = true;
        max_delta = 0.0;
        fallbacks = 0 }
  in
  Array.iteri
    (fun i out ->
      let it, conv, dinf, fbk, tr = Option.get out in
      (match (tr, on_trace) with Some tr, Some f -> f i ~iterations:it tr | _ -> ());
      let acc = !fan in
      fan :=
        { max_iterations = max acc.max_iterations it;
          total_iterations = acc.total_iterations + it;
          all_converged = acc.all_converged && conv;
          (* [Float.max] keeps a nan delta (divergence guard) *)
          max_delta = Float.max acc.max_delta dinf;
          fallbacks = acc.fallbacks + fbk })
    outs;
  !fan

let solve ?(config = Config.default) ?obs ?s0 (model : Model.t) =
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Solver.solve: " ^ msg));
  let n = model.nvars and m = Model.num_constraints model in
  (match s0 with
  | Some s0 when Vec.dim s0 <> n + m ->
    invalid_arg
      (Printf.sprintf "Solver.solve: s0 has dimension %d, expected n + m = %d"
         (Vec.dim s0) (n + m))
  | Some _ | None -> ());
  let deco = Decompose.analyze model in
  let shards = deco.Decompose.shards in
  if config.progress then
    Printf.eprintf "[mclh] solve: %d components (largest dim %d)\n%!"
      (Decompose.num_components deco) (Decompose.largest_dim deco);
  (* a one-shard solve keeps the plain trace name; shards get their own *)
  let on_trace =
    match obs with
    | None -> None
    | Some _ when Array.length shards = 1 ->
      Some (fun _ ~iterations:_ tr -> Obs.attach_trace obs "solver/delta_inf" tr)
    | Some _ ->
      Some
        (fun i ~iterations tr ->
          let name = Printf.sprintf "solver/comp%03d" i in
          Obs.attach_trace obs (name ^ "/delta_inf") tr;
          Obs.add obs (name ^ "/iterations") iterations;
          Obs.add obs (name ^ "/dim") (Decompose.shard_dim shards.(i)))
  in
  let x = Vec.zeros n and r = Vec.zeros m and modulus = Vec.zeros (n + m) in
  let fan = solve_shards ?on_trace ?s0 config model shards ~x ~r ~modulus in
  let components = Decompose.num_components deco
  and largest_dim = Decompose.largest_dim deco
  and backends = { fallbacks = fan.fallbacks } in
  let mismatch = Model.subcell_mismatch model x in
  Obs.add obs "solver/iterations" fan.max_iterations;
  Obs.add obs "solver/iterations_total" fan.total_iterations;
  Obs.add obs "solver/components" components;
  Obs.add obs "solver/largest_dim" largest_dim;
  if not fan.all_converged then Obs.incr obs "solver/nonconverged";
  Obs.add obs "solver/fallbacks" backends.fallbacks;
  Obs.gauge obs "solver/delta_inf" fan.max_delta;
  Obs.gauge obs "solver/mismatch" mismatch;
  { x;
    r;
    modulus;
    iterations = fan.max_iterations;
    iterations_total = fan.total_iterations;
    converged = fan.all_converged;
    delta_inf = fan.max_delta;
    mismatch;
    components;
    largest_dim;
    backends }

let lcp_problem (model : Model.t) ~lambda =
  Mclh_qp.Kkt.to_lcp (Model.to_qp model ~lambda)
