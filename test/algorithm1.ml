(* The paper's Algorithm 1, as the reference the production solve is
   checked against: plain MMSIM (no Anderson step, no rescue) on the
   solver's own in-place operators at [config]'s beta/theta, tolerance
   and budget. Each shard of [Decompose.analyze] is solved on its own
   sub-model, or the whole model as one LCP with [~whole:true]. A shard
   starts from its restriction of [s0] when given, otherwise from the
   PlaceRow warm start ([Warm_start.modulus_vector]). *)

open Mclh_core
open Mclh_linalg

type result = {
  x : Vec.t;
  r : Vec.t;
  iterations : int;  (** max over shards *)
  iterations_total : int;  (** sum over shards *)
  converged : bool;  (** every shard converged *)
}

let solve_lcp ?s0 (config : Config.t) (model : Model.t) =
  let ops = Solver.operators model config in
  let s0 =
    match s0 with Some s0 -> s0 | None -> Warm_start.modulus_vector model ops
  in
  let options =
    { Mclh_lcp.Mmsim.eps = config.eps;
      max_iter = config.max_iter;
      accel = 0 }
  in
  Mclh_lcp.Mmsim.solve ~options ~s0 ops ~q:(Solver.rhs_q model)

let solve ?(whole = false) ?s0 config (model : Model.t) =
  let n = model.nvars and m = Model.num_constraints model in
  if whole then begin
    let out = solve_lcp ?s0 config model in
    let z = out.Mclh_lcp.Mmsim.z in
    { x = Array.sub z 0 n;
      r = Array.sub z n m;
      iterations = out.Mclh_lcp.Mmsim.iterations;
      iterations_total = out.Mclh_lcp.Mmsim.iterations;
      converged = out.Mclh_lcp.Mmsim.converged }
  end
  else begin
    let x = Vec.zeros n and r = Vec.zeros m in
    Array.fold_left
      (fun acc shard ->
        let sub = Decompose.extract model shard in
        let out =
          solve_lcp ?s0:(Option.map (Decompose.restrict model shard) s0) config sub
        in
        let z = out.Mclh_lcp.Mmsim.z and nsub = sub.Model.nvars in
        Decompose.scatter_vars shard (Array.sub z 0 nsub) x;
        Decompose.scatter_cons shard
          (Array.sub z nsub (Model.num_constraints sub))
          r;
        let it = out.Mclh_lcp.Mmsim.iterations in
        { acc with
          iterations = max acc.iterations it;
          iterations_total = acc.iterations_total + it;
          converged = acc.converged && out.Mclh_lcp.Mmsim.converged })
      { x; r; iterations = 0; iterations_total = 0; converged = true }
      (Decompose.analyze model).Decompose.shards
  end
