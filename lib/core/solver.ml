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

(* the smallest chunk, in variables plus constraints. An iteration
   enters about a dozen regions at ~10 us each on a 2-core host; on
   superblue12's largest shard a 2-domain accelerated iteration took
   1.27-1.35 ms instead of 2.15 at 111,840 dimensions and 0.43-0.45 ms
   instead of 0.63 at 33,486 (EXPERIMENTS E13), while a 16k-dimension
   shard's whole iteration (~0.3 ms) is within reach of the dispatch
   cost. *)
let chunk_min_dim = 16_384

(* a zero coupling in D between constraints [c - 1] and [c]: the Thomas
   sweep may restart at [c] *)
let cut_ok ~m (off : float array) c =
  c = 0 || c = m || (off.(c - 1) = 0.0 && not (Float.sign_bit off.(c - 1)))

let chunk_groups (model : Model.t) (d : Tridiag.t) =
  let starts = Model.group_starts model.row_vars in
  let ng = Array.length starts - 1 in
  let m = Model.num_constraints model in
  (* variables plus constraints of the groups [g0, g1) *)
  let dim g0 g1 = (2 * (starts.(g1) - starts.(g0))) - (g1 - g0) in
  let cuts = ref [ 0 ] and first = ref 0 in
  for g = 1 to ng - 1 do
    if dim !first g >= chunk_min_dim && cut_ok ~m d.Tridiag.sup (starts.(g) - g)
    then begin
      cuts := g :: !cuts;
      first := g
    end
  done;
  (* a short tail joins the chunk before it *)
  (match !cuts with
  | last :: (_ :: _ as rest) when dim last ng < chunk_min_dim -> cuts := rest
  | _ -> ());
  Array.of_list (List.rev (max ng 0 :: !cuts))

(* the MMSIM operators of the splitting (16), matrix-free and
   allocation-free. B is never formed: the groups tile the variables in
   order ({!Model.group_starts}), so one walk over them meets every
   variable v beside the multipliers of its pairs (v - 1, v) and
   (v, v + 1), and every constraint (v, v + 1) beside both its variables.
   Each operator reads the iterate z = (x; r) in place and writes its
   result straight into [dst], which must not be [z]. Each B entry keeps
   the explicit matrix's arithmetic, [0 + (-x_v) + x_(v+1)] and
   [0 + r_left - r_right], so the iterates are bit for bit those of a
   CSR product. One iteration is an arrowhead solve per chain, one Thomas
   sweep over prefactored pivots and a few streaming passes.

   Every operator runs as regions over the chunks of {!chunk_groups}:
   runs of whole groups, cut only where D's coupling is +0. A chunk's
   products and chain solves write its own variables and constraints
   (a chain is solved by its hub's chunk, spokes included), so chunks
   run concurrently with the sequential bits. The Thomas sweep restarts
   at each cut: the sequential step there computes b - (+0 * prev),
   which is b except when b = -0 and prev <= -0 or prev is not finite.
   After each sweep a serial pass in chunk order recomputes every cut
   entry with the sequential formula and redoes the chunk behind a cut
   whose bits differ, so the rare hazard costs one chunk, never a bit. *)
let operators (model : Model.t) (config : Config.t) =
  let n = model.nvars and m = Model.num_constraints model in
  let dim = n + m in
  let blocks = model.blocks in
  let starts = Model.group_starts model.row_vars in
  let { Config.lambda; beta; theta; _ } = config in
  let d = Schur.tridiag model ~lambda in
  let d_over_theta = Tridiag.scale (1.0 /. theta) d in
  let { Tridiag.f_sub; f_cprime; f_denom } =
    Tridiag.prefactor (Tridiag.add_scaled_identity d_over_theta 1.0)
  in
  (* D is symmetric: one array holds its sub- and superdiagonal values *)
  let { Tridiag.diag = dt_diag; sup = dt_off; _ } = d_over_theta in
  let cg = chunk_groups model d in
  let chunks = Array.length cg - 1 in
  let region =
    if chunks < 2 then Mclh_lcp.Mmsim.sequential
    else
      let pool = Mclh_par.Pool.get ~num_domains:config.num_domains in
      (* on an oversubscribed pool a region only timeslices; same bits *)
      if Mclh_par.Pool.oversubscribed pool then Mclh_lcp.Mmsim.sequential
      else Mclh_par.Pool.region pool
  in
  (* chunk c: groups [cg.(c), cg.(c + 1)), variables [v_lo c, v_lo (c +
     1)), constraints [c_lo c, c_lo (c + 1)) *)
  let v_lo c = starts.(cg.(c)) and c_lo c = starts.(cg.(c)) - cg.(c) in
  let c_top = (1.0 /. beta) -. 1.0 in
  (* the chains filed by the chunk their hub lies in *)
  let parts = Blocks.split blocks (Array.init (chunks + 1) v_lo) in
  (* the arguments of the running operator, read by its tasks *)
  let arg_in = ref [||] and arg_out = ref [||] and arg_a = ref true in
  (* A z ([a] true) or N z (false) on chunk c, except for N at beta = 1:
       A z = (Q~ x - B^T r; B x);
       N z = (c_top Q~ x + B^T r; (1/theta) D r), or (B^T r; (1/theta) D r)
       at beta = 1.
     At beta = 1 (the accelerated attempt) the Q~ x term vanishes: on
     finite iterates [c_top *. Q~x] is +-0 and B^T r is never -0, so
     skipping the product leaves every bit as it was. Group g's variables
     start at [f0], its constraints at [c0] in z; the D product keeps
     [Tridiag.mul_vec]'s order of terms. *)
  let product_task c =
    let z = !arg_in and dst = !arg_out and a = !arg_a in
    if a || c_top <> 0.0 then Blocks.apply_ete_part_into blocks parts c ~dim z dst;
    for g = cg.(c) to cg.(c + 1) - 1 do
      let f0 = starts.(g) in
      let l = starts.(g + 1) - f0 and c0 = n + f0 - g in
      for k = 0 to l - 1 do
        let v = f0 + k in
        let left = if k > 0 then z.(c0 + k - 1) else 0.0
        and right = if k < l - 1 then z.(c0 + k) else 0.0 in
        let btr = 0.0 +. left -. right in
        if a then begin
          dst.(v) <- z.(v) +. (lambda *. dst.(v)) -. btr;
          if k < l - 1 then dst.(c0 + k) <- 0.0 -. z.(v) +. z.(v + 1)
        end
        else begin
          dst.(v) <-
            (if c_top = 0.0 then btr
             else (c_top *. (z.(v) +. (lambda *. dst.(v)))) +. btr);
          if k < l - 1 then begin
            let i = c0 + k - n in
            let acc = dt_diag.(i) *. right in
            let acc =
              if i > 0 then acc +. (dt_off.(i - 1) *. z.(c0 + k - 1)) else acc
            in
            dst.(c0 + k) <-
              (if i < m - 1 then acc +. (dt_off.(i) *. z.(c0 + k + 1)) else acc)
          end
        end
      done
    done
  in
  let product ~a z dst =
    if Array.length z <> dim || Array.length dst <> dim then
      invalid_arg "Solver.operators: dimension mismatch";
    if z == dst then invalid_arg "Solver.operators: aliased arguments";
    arg_in := z;
    arg_out := dst;
    arg_a := a;
    region chunks product_task
  in
  let apply_a_into z dst = product ~a:true z dst in
  let apply_n_into z dst = product ~a:false z dst in
  let alpha = 1.0 +. (1.0 /. beta) and coef = lambda /. beta in
  (* top: ((1/beta) Q~ + I) s_x = rhs_x, i.e. alpha I + coef E^T E,
     solved per chain by the hub's chunk *)
  let top_task c =
    Blocks.solve_shifted_part_into ~alpha ~coef blocks parts c ~dim !arg_in
      !arg_out
  in
  (* bottom: ((1/theta) D + I) s_r = rhs_r - B s_x. [rhs_bottom c] forms
     chunk c's right-hand side in place; the forward recurrence then runs
     over it from the chunk's own start b / denom, and the back
     substitution in place from the chunk's last entry *)
  let rhs_bottom c =
    let rhs = !arg_in and dst = !arg_out in
    for g = cg.(c) to cg.(c + 1) - 1 do
      for v = starts.(g) to starts.(g + 1) - 2 do
        let i = n + v - g in
        dst.(i) <- rhs.(i) -. (0.0 -. dst.(v) +. dst.(v + 1))
      done
    done
  in
  let start_b = Array.make chunks 0.0 in
  let sweep_from dst lo hi =
    if hi > lo then begin
      let p = ref dst.(n + lo) in
      for i = lo + 1 to hi - 1 do
        let x = (dst.(n + i) -. (f_sub.(i - 1) *. !p)) /. f_denom.(i) in
        dst.(n + i) <- x;
        p := x
      done
    end
  in
  let unsweep_from dst lo hi =
    if hi > lo then begin
      let p = ref dst.(n + hi - 1) in
      for i = hi - 2 downto lo do
        let x = dst.(n + i) -. (f_cprime.(i) *. !p) in
        dst.(n + i) <- x;
        p := x
      done
    end
  in
  (* The sweeps of several chunks share one loop: independent recurrences
     fill one another's latency. A forward step waits on the last through
     a multiply, a subtraction and a division, so four chunks share it; a
     back step only through a multiply and a subtraction, so two do (four
     measured no faster). The loop runs the chunks' common length; each
     then finishes alone. A forward remainder of fewer than four chunks
     sweeps them one by one. *)
  let len c = c_lo (c + 1) - c_lo c in
  let forward4 dst a =
    let lo1 = c_lo a and lo2 = c_lo (a + 1)
    and lo3 = c_lo (a + 2) and lo4 = c_lo (a + 3) in
    let k = min (min (len a) (len (a + 1))) (min (len (a + 2)) (len (a + 3))) in
    if k > 1 then begin
      let p1 = ref dst.(n + lo1) and p2 = ref dst.(n + lo2)
      and p3 = ref dst.(n + lo3) and p4 = ref dst.(n + lo4) in
      for j = 1 to k - 1 do
        let i1 = lo1 + j and i2 = lo2 + j and i3 = lo3 + j and i4 = lo4 + j in
        let x1 = (dst.(n + i1) -. (f_sub.(i1 - 1) *. !p1)) /. f_denom.(i1)
        and x2 = (dst.(n + i2) -. (f_sub.(i2 - 1) *. !p2)) /. f_denom.(i2)
        and x3 = (dst.(n + i3) -. (f_sub.(i3 - 1) *. !p3)) /. f_denom.(i3)
        and x4 = (dst.(n + i4) -. (f_sub.(i4 - 1) *. !p4)) /. f_denom.(i4) in
        dst.(n + i1) <- x1;
        dst.(n + i2) <- x2;
        dst.(n + i3) <- x3;
        dst.(n + i4) <- x4;
        p1 := x1;
        p2 := x2;
        p3 := x3;
        p4 := x4
      done
    end;
    let k0 = max 0 (k - 1) in
    sweep_from dst (lo1 + k0) lo2;
    sweep_from dst (lo2 + k0) lo3;
    sweep_from dst (lo3 + k0) lo4;
    sweep_from dst (lo4 + k0) (c_lo (a + 4))
  in
  let backward2 dst a b =
    let hi1 = c_lo (a + 1) and hi2 = c_lo (b + 1) in
    let k = min (len a) (len b) in
    if k > 1 then begin
      let p1 = ref dst.(n + hi1 - 1) and p2 = ref dst.(n + hi2 - 1) in
      for j = 2 to k do
        let i1 = hi1 - j and i2 = hi2 - j in
        let x1 = dst.(n + i1) -. (f_cprime.(i1) *. !p1)
        and x2 = dst.(n + i2) -. (f_cprime.(i2) *. !p2) in
        dst.(n + i1) <- x1;
        dst.(n + i2) <- x2;
        p1 := x1;
        p2 := x2
      done
    end;
    let k0 = max 0 (k - 1) in
    unsweep_from dst (c_lo a) (hi1 - k0);
    unsweep_from dst (c_lo b) (hi2 - k0)
  in
  let quads = (chunks + 3) / 4 in
  let forward_task t =
    let dst = !arg_out in
    let a = 4 * t and b = min chunks ((4 * t) + 4) in
    for c = a to b - 1 do
      rhs_bottom c;
      let lo = c_lo c in
      if len c > 0 then begin
        start_b.(c) <- dst.(n + lo);
        dst.(n + lo) <- dst.(n + lo) /. f_denom.(lo)
      end
    done;
    if b - a = 4 then forward4 dst a
    else
      for c = a to b - 1 do
        sweep_from dst (c_lo c) (c_lo (c + 1))
      done
  in
  let pairs = (chunks + 1) / 2 in
  let backward_task t =
    let dst = !arg_out and a = 2 * t in
    if a + 1 < chunks then backward2 dst a (a + 1)
    else unsweep_from dst (c_lo a) (c_lo (a + 1))
  in
  (* the forward value before each chunk's first constraint, kept for a
     backward redo *)
  let fwd_before = Array.make chunks 0.0 in
  (* chunk c's forward sweep as the sequential one runs it *)
  let redo_forward c =
    let dst = !arg_out in
    let lo = c_lo c in
    rhs_bottom c;
    dst.(n + lo) <-
      (if lo = 0 then dst.(n + lo) /. f_denom.(0)
       else (dst.(n + lo) -. (f_sub.(lo - 1) *. fwd_before.(c))) /. f_denom.(lo));
    sweep_from dst lo (c_lo (c + 1))
  in
  let solve_m_omega_into rhs dst =
    if Array.length rhs <> dim || Array.length dst <> dim then
      invalid_arg "Solver.operators: dimension mismatch";
    if rhs == dst then invalid_arg "Solver.operators: aliased arguments";
    arg_in := rhs;
    arg_out := dst;
    region chunks top_task;
    region quads forward_task;
    for c = 1 to chunks - 1 do
      let lo = c_lo c in
      if lo > 0 && c_lo (c + 1) > lo then begin
        let prev = dst.(n + lo - 1) in
        fwd_before.(c) <- prev;
        let first = (start_b.(c) -. (f_sub.(lo - 1) *. prev)) /. f_denom.(lo) in
        if Int64.bits_of_float first <> Int64.bits_of_float dst.(n + lo) then
          redo_forward c
      end
    done;
    region pairs backward_task;
    for c = chunks - 2 downto 0 do
      let lo = c_lo c and hi = c_lo (c + 1) in
      if hi > lo && hi < m then begin
        let next = dst.(n + hi) in
        let last = dst.(n + hi - 1) -. (f_cprime.(hi - 1) *. next) in
        if Int64.bits_of_float last <> Int64.bits_of_float dst.(n + hi - 1)
        then begin
          redo_forward c;
          dst.(n + hi - 1) <- dst.(n + hi - 1) -. (f_cprime.(hi - 1) *. next);
          unsweep_from dst lo hi
        end
      end
    done
  in
  { Mclh_lcp.Mmsim.dim;
    apply_a_into;
    apply_n_into;
    solve_m_omega_into;
    chunks;
    region }

let gamma_operator (model : Model.t) (config : Config.t) =
  let m = Model.num_constraints model in
  let b = Model.b_matrix model in
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

   [ops], when given, are the first attempt's operators, built by the
   caller from [model] and [accel_config config].

   A caller-supplied [s0] (incremental warm restart) replaces the
   PlaceRow warm start, except on a shard where [Warm_start.exact]
   holds: that shard starts from the PlaceRow fixed point whatever [s0]
   says, and the MMSIM's own stopping test certifies it in one
   iteration. *)
type shard_out = {
  iterations : int;
  converged : bool;
  delta : float;
  fallbacks : int;
  chunks : int;
}

let solve_raw ?on_iter ?s0 ?ops (config : Config.t) (model : Model.t) =
  let n = model.nvars and m = Model.num_constraints model in
  let q = rhs_q model in
  let exact_start = Warm_start.exact model in
  let mmsim ?ops (cfg : Config.t) =
    let ops = match ops with Some ops -> ops | None -> operators model cfg in
    let options =
      { Mclh_lcp.Mmsim.eps = cfg.eps;
        max_iter = cfg.max_iter;
        accel = accel_depth }
    in
    let s0 =
      match s0 with
      | Some s0 when not exact_start -> s0
      | _ -> Warm_start.modulus_vector model ops
    in
    (ops.chunks, Mclh_lcp.Mmsim.solve ~options ?on_iter ~s0 ops ~q)
  in
  let chunks, first = mmsim ?ops (accel_config config) in
  let out, spent, fallbacks =
    if first.Mclh_lcp.Mmsim.converged then (first, 0, 0)
    else
      ( snd (mmsim { config with theta = config.theta /. 2.0 }),
        first.Mclh_lcp.Mmsim.iterations,
        1 )
  in
  let z = out.Mclh_lcp.Mmsim.z in
  ( Array.sub z 0 n,
    Array.sub z n m,
    out.Mclh_lcp.Mmsim.s,
    { iterations = spent + out.Mclh_lcp.Mmsim.iterations;
      converged = out.Mclh_lcp.Mmsim.converged;
      delta = out.Mclh_lcp.Mmsim.delta_inf;
      fallbacks;
      chunks } )

type fan_in = {
  max_iterations : int;
  total_iterations : int;
  all_converged : bool;
  max_delta : float;
  fallbacks : int;
  chunks : int;
}

(* The one per-shard fan-out. Independent sub-LCPs go over the domain
   pool; each job materializes its sub-model ([Decompose.extract], the
   model itself for a shard covering the whole model) and converges on its own
   schedule. Shard contents are fixed by the model alone, so any pool
   size produces the same bits. A dominant shard that runs as several
   chunks ({!chunk_groups}) goes first, on the calling thread, with the
   pool free for its operators' regions; the rest fan out after it, and
   a lone shard runs on the calling thread. Nested entries (Fence
   territories, bench fan-out, concurrent serve sessions) find the pool
   busy and fall back to sequential loops with identical results. *)
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
  (* shard [i], given its sub-model [sub]; [alone] when it runs outside
     the shard fan-out, the only shard or the dominant one, so that its
     regions may use the pool *)
  let solve_on ?ops ?(alone = ns = 1) i sub =
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
    let sx, sr, ss, out =
      solve_raw ?on_iter
        ?s0:(Option.map (Decompose.restrict model shard) s0)
        ?ops config sub
    in
    Decompose.scatter_vars shard sx x;
    Decompose.scatter_cons shard sr r;
    Decompose.scatter model shard ss modulus;
    outs.(i) <- Some (out, tr);
    if config.progress then begin
      if out.chunks > 1 then
        Printf.eprintf "[mclh] solve: shard %d (dim %d) ran as %d chunks %s\n%!"
          i (Decompose.shard_dim shard) out.chunks
          (if alone then "alone (its regions may use the pool)"
           else "in the shard fan-out (its regions on one domain)");
      let k = Atomic.fetch_and_add completed 1 + 1 in
      if k mod progress_step = 0 || k = ns then
        Printf.eprintf "[mclh] solve: %d/%d shards done\n%!" k ns
    end
  in
  (* The dominant shard, more than half of all dimensions, runs first on
     the calling thread, with the pool free for its operators' regions,
     when those operators run as two or more chunks; they are built here
     and serve its first attempt either way. Every other shard, and a
     dominant one that stays one chunk, fans out: shards of similar work
     finish sooner side by side, one domain each, than one after the
     other on both (EXPERIMENTS E5). *)
  let lead =
    if ns < 2 then None
    else begin
      let i = order.(0) in
      let dim = Decompose.shard_dim shards.(i) in
      let total =
        Array.fold_left (fun acc s -> acc + Decompose.shard_dim s) 0 shards
      in
      if 2 * dim <= total || dim < 2 * chunk_min_dim then None
      else begin
        let sub = Decompose.extract model shards.(i) in
        Some (i, sub, operators sub (accel_config config))
      end
    end
  in
  let extract_and_solve i = solve_on i (Decompose.extract model shards.(i)) in
  let rest, solve_shard =
    match lead with
    | Some (i, sub, ops) when ops.Mclh_lcp.Mmsim.chunks >= 2 ->
      solve_on ~ops ~alone:true i sub;
      (Array.sub order 1 (ns - 1), extract_and_solve)
    | Some (i, sub, ops) ->
      (order, fun j -> if j = i then solve_on ~ops j sub else extract_and_solve j)
    | None -> (order, extract_and_solve)
  in
  let pool =
    if Array.length rest > 1 then
      Some (Mclh_par.Pool.get ~num_domains:config.num_domains)
    else None
  in
  (match pool with
  | Some pool when not (Mclh_par.Pool.oversubscribed pool) ->
    Mclh_par.Pool.parallel_iter pool solve_shard rest
  | Some _ | None ->
    (* on an oversubscribed pool (more domains than cores) fan-out only
       adds GC-rendezvous stalls; same bits either way *)
    Array.iter solve_shard rest);
  let fan =
    ref
      { max_iterations = 0;
        total_iterations = 0;
        all_converged = true;
        max_delta = 0.0;
        fallbacks = 0;
        chunks = 0 }
  in
  let largest = ref (-1) in
  Array.iteri
    (fun i o ->
      let out, tr = Option.get o in
      let it = out.iterations in
      (match (tr, on_trace) with Some tr, Some f -> f i ~iterations:it tr | _ -> ());
      let acc = !fan in
      let dim = Decompose.shard_dim shards.(i) in
      let largest_so_far = dim > !largest in
      if largest_so_far then largest := dim;
      fan :=
        { max_iterations = max acc.max_iterations it;
          total_iterations = acc.total_iterations + it;
          all_converged = acc.all_converged && out.converged;
          (* [Float.max] keeps a nan delta (divergence guard) *)
          max_delta = Float.max acc.max_delta out.delta;
          fallbacks = acc.fallbacks + out.fallbacks;
          chunks = (if largest_so_far then out.chunks else acc.chunks) })
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
  Obs.add obs "solver/chunks" fan.chunks;
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
