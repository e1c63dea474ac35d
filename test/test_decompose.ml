(* Tests for the connected-component LCP decomposition and the
   allocation-free MMSIM kernels: partition validity, decomposed-parallel
   vs monolithic agreement, bit-identity across domain counts, the exact
   single-component fallback, and zero steady-state allocation per
   iteration on the in-place path. *)

open Mclh_core
open Mclh_linalg

let instance ?(options = Mclh_benchgen.Generate.default_options) ~scale name =
  Mclh_benchgen.Generate.generate ~options
    (Mclh_benchgen.Spec.scaled scale (Mclh_benchgen.Spec.find name))

let model_of ?options ~scale name =
  let d = (instance ?options ~scale name).Mclh_benchgen.Generate.design in
  (d, Model.build d (Row_assign.assign d))

let blockage_options =
  { Mclh_benchgen.Generate.default_options with
    blockage_fraction = 0.15;
    blockage_count = 24 }

let tall_options =
  { Mclh_benchgen.Generate.default_options with tall_cell_fraction = 0.3 }

(* ---------- partition validity ---------- *)

let test_partition_valid () =
  let _, model = model_of ~options:blockage_options ~scale:0.02 "fft_2" in
  let deco = Decompose.analyze model in
  Alcotest.(check bool) "several components" true (deco.Decompose.num_components > 1);
  Alcotest.(check bool) "several shards" true (Array.length deco.Decompose.shards > 1);
  let n = model.Model.nvars and m = Model.num_constraints model in
  let var_seen = Array.make n 0 and con_seen = Array.make m 0 in
  Array.iter
    (fun shard ->
      let sub = Decompose.extract model shard in
      Alcotest.(check int) "vars map length" sub.Model.nvars
        (Array.length shard.Decompose.vars);
      Alcotest.(check int) "cons map length" (Model.num_constraints sub)
        (Array.length shard.Decompose.cons);
      Array.iteri
        (fun local v ->
          var_seen.(v) <- var_seen.(v) + 1;
          (* extraction preserves the linear term and shift *)
          Alcotest.(check (float 0.0)) "p extracted" model.Model.p.(v)
            sub.Model.p.(local);
          Alcotest.(check (float 0.0)) "shift extracted" model.Model.shift.(v)
            sub.Model.shift.(local))
        shard.Decompose.vars;
      Array.iteri
        (fun local c ->
          con_seen.(c) <- con_seen.(c) + 1;
          Alcotest.(check (float 0.0)) "b_rhs extracted" model.Model.b_rhs.(c)
            sub.Model.b_rhs.(local))
        shard.Decompose.cons;
      (* every constraint row must stay a (-1, +1) pair over shard-local
         variables of the same component *)
      for i = 0 to Model.num_constraints sub - 1 do
        match Csr.row_entries (Model.b_matrix sub) i with
        | [ (_, a); (_, b) ] ->
          Alcotest.(check (float 0.0)) "pair sum" 0.0 (a +. b)
        | _ -> Alcotest.fail "constraint row is not a two-entry pair"
      done)
    deco.Decompose.shards;
  Alcotest.(check (array int)) "vars partitioned" (Array.make n 1) var_seen;
  Alcotest.(check (array int)) "cons partitioned" (Array.make m 1) con_seen;
  (* chains never split across shards *)
  let total_chains =
    Array.fold_left
      (fun acc shard ->
        acc + Blocks.num_chains (Decompose.extract model shard).Model.blocks)
      0 deco.Decompose.shards
  in
  Alcotest.(check int) "chains preserved"
    (Blocks.num_chains model.Model.blocks)
    total_chains;
  (* restricting a global modulus-layout vector to every shard and
     scattering the slices back reproduces it exactly *)
  let rng = Random.State.make [| 7 |] in
  let global = Vec.init (n + m) (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let back = Vec.create (n + m) nan in
  Array.iter
    (fun shard ->
      Decompose.scatter model shard (Decompose.restrict model shard global) back)
    deco.Decompose.shards;
  Alcotest.(check (array (float 0.0))) "modulus round-trip" global back

let test_component_ids_cover () =
  let _, model = model_of ~scale:0.02 "fft_2" in
  let deco = Decompose.analyze model in
  Alcotest.(check int) "one id per var" model.Model.nvars
    (Array.length deco.Decompose.comp_of_var);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "dense ids" true
        (c >= 0 && c < deco.Decompose.num_components))
    deco.Decompose.comp_of_var;
  (* constraints keep both endpoints in one component *)
  let b = Model.b_matrix model in
  for i = 0 to Model.num_constraints model - 1 do
    match Csr.row_entries b i with
    | [ (u, _); (v, _) ] ->
      Alcotest.(check int) "constraint inside one component"
        deco.Decompose.comp_of_var.(u)
        deco.Decompose.comp_of_var.(v)
    | _ -> Alcotest.fail "constraint row arity"
  done

let test_shard_d_is_restriction () =
  (* a shard's own constraint numbering makes neighbours of constraints
     that are not neighbours in the full model; on this draw one such
     pair shares a tall-cell chain, and coupling it in the shard's D
     stopped plain MMSIM converging on that shard. Every shard's D must
     be the full D restricted, zero where the parent has no coupling. *)
  let options =
    { Mclh_benchgen.Generate.default_options with
      seed = 83;
      blockage_fraction = 0.12;
      blockage_count = 12;
      tall_cell_fraction = 0.31 }
  in
  let _, model = model_of ~options ~scale:0.01 "fft_2" in
  let lambda = Config.default.Config.lambda in
  let full = Schur.tridiag model ~lambda in
  let splits = ref 0 in
  Array.iter
    (fun shard ->
      let cons = shard.Decompose.cons in
      let d = Schur.tridiag (Decompose.extract model shard) ~lambda in
      Array.iteri
        (fun j c ->
          Alcotest.(check (float 0.0)) "diagonal" full.Tridiag.diag.(c)
            d.Tridiag.diag.(j);
          if j + 1 < Array.length cons then begin
            let adjacent = cons.(j + 1) = c + 1 in
            if not adjacent then incr splits;
            Alcotest.(check (float 0.0)) "off-diagonal"
              (if adjacent then full.Tridiag.sup.(c) else 0.0)
              d.Tridiag.sup.(j)
          end)
        cons)
    (Decompose.analyze model).Decompose.shards;
  Alcotest.(check bool) "shards with split neighbours exercised" true
    (!splits > 0)

(* ---------- decomposed vs monolithic ---------- *)

let placement_xs model x =
  (Model.placement_of model x).Mclh_circuit.Placement.xs

let check_against_monolithic ?(tol = 1e-9) name model =
  (* plain Algorithm 1 on both sides ({!Algorithm1}): this check isolates
     the decomposition machinery. Each shard's D is the monolithic D
     restricted to the shard ([Model.d_split]), so both runs iterate the
     same map component by component and differ only in where they stop.
     An iterate-change stop bounds the last step, not the distance to the
     fixed point: a component contracting at rate rho can stop
     eps / (1 - rho) short of it, and a run that exhausts its budget
     proves nothing. So eps sits
     four orders of magnitude below any tolerance checked here, the
     budget is ample, and both runs must report convergence before they
     are compared. *)
  let tight =
    { Config.default with eps = 1e-12; max_iter = 1_000_000; num_domains = 1 }
  in
  let mono = Algorithm1.solve ~whole:true tight model in
  let dec = Algorithm1.solve tight model in
  Alcotest.(check bool) (name ^ " monolithic converged") true
    mono.Algorithm1.converged;
  Alcotest.(check bool) (name ^ " decomposed converged") true
    dec.Algorithm1.converged;
  let diff =
    Vec.dist_inf
      (placement_xs model mono.Algorithm1.x)
      (placement_xs model dec.Algorithm1.x)
  in
  if mono.Algorithm1.iterations = dec.Algorithm1.iterations
     && Decompose.num_components (Decompose.analyze model) = 1
  then
    Alcotest.(check (array (float 0.0)))
      (name ^ " bit-identical (single component)")
      mono.Algorithm1.x dec.Algorithm1.x
  else
    Alcotest.(check bool)
      (Printf.sprintf "%s |dx| %.2e <= %.0e" name diff tol)
      true (diff <= tol)

let test_matches_monolithic () =
  List.iter
    (fun (name, options, scale) ->
      let _, model = model_of ~options ~scale name in
      check_against_monolithic name model)
    [ ("fft_2", Mclh_benchgen.Generate.default_options, 0.02);
      ("fft_2", blockage_options, 0.02);
      ("fft_2", tall_options, 0.015);
      ("pci_bridge32_a",
       { Mclh_benchgen.Generate.default_options with single_height_only = true },
       0.02) ]

(* The decomposition's exact claim: the whole model's plain iterates are
   the shards' iterates, component by component, at every step. With a
   stop no step can meet, both runs take the same [budget] steps (a shard
   that lands on an exact fixed point stops early, and more steps leave
   it there), so x and r must agree bit for bit. This holds whether or
   not the draw converges; [check_against_monolithic] demands convergence
   beside it. *)
let check_iterates_match ?(budget = 5_000) name model =
  let fixed =
    { Config.default with
      eps = Float.min_float;
      max_iter = budget;
      num_domains = 1 }
  in
  let mono = Algorithm1.solve ~whole:true fixed model in
  let dec = Algorithm1.solve fixed model in
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check int) (name ^ " steps") mono.Algorithm1.iterations
    dec.Algorithm1.iterations;
  Alcotest.(check (array int64)) (name ^ " x bit-identical")
    (bits mono.Algorithm1.x) (bits dec.Algorithm1.x);
  Alcotest.(check (array int64)) (name ^ " r bit-identical")
    (bits mono.Algorithm1.r) (bits dec.Algorithm1.r)

let test_matches_monolithic_property =
  QCheck.Test.make ~count:6 ~name:"decomposed solve matches monolithic"
    QCheck.(triple (int_bound 1000) (int_bound 20) (int_bound 40))
    (fun (seed, blockage_pct, tall_pct) ->
      let blockage_fraction = float_of_int blockage_pct /. 100.0 in
      let options =
        { Mclh_benchgen.Generate.default_options with
          seed;
          blockage_fraction;
          blockage_count = (if blockage_fraction > 0.0 then 12 else 0);
          tall_cell_fraction = float_of_int tall_pct /. 100.0 }
      in
      let _, model = model_of ~options ~scale:0.01 "fft_2" in
      check_against_monolithic ~tol:1e-8 "property" model;
      check_iterates_match "property" model;
      true)

(* ---------- independence of the input numbering ---------- *)

(* [d] with its cells renumbered by a seeded random permutation: new
   cell [j] is old cell [perm.(j)]; returns the design and [inv], the
   new id of every old cell *)
let relabel seed (d : Mclh_circuit.Design.t) =
  let open Mclh_circuit in
  let n = Design.num_cells d in
  let perm = Array.init n Fun.id in
  Mclh_benchgen.Rng.shuffle (Mclh_benchgen.Rng.create seed) perm;
  let inv = Array.make n 0 in
  Array.iteri (fun j i -> inv.(i) <- j) perm;
  let cells =
    Array.mapi
      (fun j i ->
        let c = d.Design.cells.(i) in
        Cell.make ~id:j ~name:c.Cell.name ~width:c.Cell.width
          ~height:c.Cell.height ?bottom_rail:c.Cell.bottom_rail
          ?region:c.Cell.region ())
      perm
  in
  let pick a = Array.map (fun i -> a.(i)) perm in
  let nets = ref [] in
  Netlist.iter d.Design.nets (fun _ net ->
      nets :=
        Array.map (fun p -> { p with Netlist.cell = inv.(p.Netlist.cell) }) net
        :: !nets);
  let g = d.Design.global in
  ( Design.make ~blockages:d.Design.blockages ~regions:d.Design.regions
      ~name:d.Design.name ~chip:d.Design.chip ~cells
      ~global:(Placement.make ~xs:(pick g.Placement.xs) ~ys:(pick g.Placement.ys))
      ~nets:(Netlist.make ~num_cells:n (List.rev !nets))
      (),
    inv )

(* no two cells spanning one row share a global x *)
let tie_free (model : Model.t) =
  let xs = model.Model.design.Mclh_circuit.Design.global.Mclh_circuit.Placement.xs in
  Array.for_all
    (fun vars ->
      let gx = Array.map (fun v -> xs.(model.Model.var_cell.(v))) vars in
      let sorted = Array.copy gx in
      Array.sort compare sorted;
      let distinct = ref true in
      for k = 1 to Array.length sorted - 1 do
        if sorted.(k) = sorted.(k - 1) then distinct := false
      done;
      !distinct)
    model.Model.row_vars

(* The solve must not depend on how the input numbers its cells: the
   relaxed x of every cell and the iteration count are bit-identical
   under a relabelling. Only draws without an x tie inside a row count:
   there [Model.build] orders the tied cells by cell id, by design, so a
   relabelling may swap them. *)
let test_relabel_invariance =
  QCheck.Test.make ~count:30 ~name:"solve is independent of cell numbering"
    QCheck.(quad (int_bound 1000) (int_bound 20) (int_bound 40) (int_bound 1000))
    (fun (seed, blockage_pct, tall_pct, perm_seed) ->
      let blockage_fraction = float_of_int blockage_pct /. 100.0 in
      let options =
        { Mclh_benchgen.Generate.default_options with
          seed;
          blockage_fraction;
          blockage_count = (if blockage_fraction > 0.0 then 12 else 0);
          tall_cell_fraction = float_of_int tall_pct /. 100.0 }
      in
      let d, model = model_of ~options ~scale:0.01 "fft_2" in
      QCheck.assume (tie_free model);
      let d', inv = relabel perm_seed d in
      let model' = Model.build d' (Mclh_core.Row_assign.assign d') in
      let config = { Config.default with num_domains = 1 } in
      let res = Solver.solve ~config model and res' = Solver.solve ~config model' in
      let xs = (Model.placement_of model res.Solver.x).Mclh_circuit.Placement.xs
      and xs' = (Model.placement_of model' res'.Solver.x).Mclh_circuit.Placement.xs in
      let same_x =
        Array.for_all Fun.id
          (Array.mapi
             (fun i x ->
               Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float xs'.(inv.(i))))
             xs)
      in
      if not same_x then QCheck.Test.fail_report "relaxed x differs";
      if res.Solver.iterations_total <> res'.Solver.iterations_total then
        QCheck.Test.fail_reportf "iterations_total %d vs %d"
          res.Solver.iterations_total res'.Solver.iterations_total;
      true)

(* ---------- bit-identity across domain counts ---------- *)

(* fft_2 with 15% blockage: many small shards, fanned out. superblue12
   at 0.015 with 5% blockage: a shard of two chunks holding most of the
   LCP beside nine small ones, so the dominant shard runs first on the
   whole pool and the rest fan out after it *)
let test_domain_count_bit_identity () =
  List.iter
    (fun (name, model, dominant) ->
      let solve nd =
        Solver.solve ~config:{ Config.default with num_domains = nd } model
      in
      let seq = solve 1 in
      Alcotest.(check bool) (name ^ ": decomposition active") true
        (seq.Solver.components > 1);
      let dim = model.Model.nvars + Model.num_constraints model in
      Alcotest.(check bool) (name ^ ": dominant chunked shard") dominant
        (2 * seq.Solver.largest_dim > dim
        && seq.Solver.largest_dim >= 2 * Solver.chunk_min_dim);
      List.iter
        (fun nd ->
          let par = solve nd in
          let tag = Printf.sprintf "%s nd=%d" name nd in
          Alcotest.(check int) (tag ^ " iterations") seq.Solver.iterations
            par.Solver.iterations;
          Alcotest.(check (array (float 0.0))) (tag ^ " x") seq.Solver.x
            par.Solver.x;
          Alcotest.(check (array (float 0.0))) (tag ^ " r") seq.Solver.r
            par.Solver.r)
        [ 2; 4 ])
    [ ("fft_2", snd (model_of ~options:blockage_options ~scale:0.02 "fft_2"), false);
      ( "superblue12",
        snd
          (model_of
             ~options:
               { Mclh_benchgen.Generate.default_options with
                 blockage_fraction = 0.05 }
             ~scale:0.015 "superblue12"),
        true ) ]

let test_single_component_fallback () =
  (* des_perf_1's mixed rows are all bridged by double-height cells: one
     component, so the decomposed solve is one shard covering the whole
     model and must equal Algorithm 1 on the whole LCP exactly *)
  let _, model = model_of ~scale:0.02 "des_perf_1" in
  let deco = Decompose.analyze model in
  Alcotest.(check int) "single component" 1 (Decompose.num_components deco);
  Alcotest.(check int) "single shard" 1 (Array.length deco.Decompose.shards);
  Alcotest.(check bool) "the shard's sub-model is the model" true
    (Decompose.extract model deco.Decompose.shards.(0) == model);
  let obs = Mclh_obs.Obs.create () in
  let dec = Solver.solve ~obs model in
  Alcotest.(check (pair int int)) "one component of dim n + m"
    (1, model.Model.nvars + Model.num_constraints model)
    (dec.Solver.components, dec.Solver.largest_dim);
  let mono = Algorithm1.solve ~whole:true Config.default model in
  let sharded = Algorithm1.solve Config.default model in
  Alcotest.(check int) "iterations" mono.Algorithm1.iterations
    sharded.Algorithm1.iterations;
  Alcotest.(check (array (float 0.0))) "x bit-identical" mono.Algorithm1.x
    sharded.Algorithm1.x;
  Alcotest.(check (array (float 0.0))) "r bit-identical" mono.Algorithm1.r
    sharded.Algorithm1.r;
  (* a one-shard solve keeps the plain trace name *)
  match Mclh_obs.Obs.find_trace obs "solver/delta_inf" with
  | None -> Alcotest.fail "solver/delta_inf trace missing"
  | Some tr ->
    Alcotest.(check int) "trace records every iteration" dec.Solver.iterations
      (Mclh_obs.Trace.recorded tr)

let test_shards_are_components =
  (* one shard per connected component on generated designs with
     blockages and tall cells: shard k holds exactly the variables of
     component k, and largest_dim is the largest shard *)
  QCheck.Test.make ~count:8 ~name:"shards are the components"
    QCheck.(triple (int_bound 1000) (int_bound 20) (int_bound 40))
    (fun (seed, blockage_pct, tall_pct) ->
      let blockage_fraction = float_of_int blockage_pct /. 100.0 in
      let options =
        { Mclh_benchgen.Generate.default_options with
          seed;
          blockage_fraction;
          blockage_count = (if blockage_fraction > 0.0 then 12 else 0);
          tall_cell_fraction = float_of_int tall_pct /. 100.0 }
      in
      let _, model = model_of ~options ~scale:0.01 "fft_2" in
      let deco = Decompose.analyze model in
      let shards = deco.Decompose.shards in
      let comp = deco.Decompose.comp_of_var in
      let comp_size = Array.make deco.Decompose.num_components 0 in
      Array.iter (fun c -> comp_size.(c) <- comp_size.(c) + 1) comp;
      let one_to_one =
        Array.length shards = deco.Decompose.num_components
        && Array.for_all Fun.id
             (Array.mapi
                (fun k shard ->
                  let vars = shard.Decompose.vars in
                  Array.length vars = comp_size.(k)
                  && Array.for_all (fun v -> comp.(v) = k) vars)
                shards)
      in
      let largest =
        Array.fold_left (fun acc sh -> max acc (Decompose.shard_dim sh)) 0 shards
      in
      one_to_one && deco.Decompose.largest_dim = largest)

(* ---------- allocation-free steady state ---------- *)

let test_zero_alloc_per_iteration () =
  let _, model = model_of ~scale:0.01 "fft_2" in
  let ops = Solver.operators model Config.default in
  let q = Solver.rhs_q model in
  let options ?(accel = 0) iters =
    (* eps below any representable progress: the loop never converges
       early, so the two runs differ by exactly [iters] iterations *)
    { Mclh_lcp.Mmsim.eps = 1e-300; max_iter = iters; accel }
  in
  let words_of ops ~q ?s0 ?accel iters =
    let options = options ?accel iters in
    let before = Gc.minor_words () in
    ignore (Mclh_lcp.Mmsim.solve ~options ?s0 ops ~q);
    Gc.minor_words () -. before
  in
  (* the chunked path: superblue12 at 0.04 is cut into several chunks,
     whose regions run on a 2-domain pool (the caller pulls tasks of
     every region too, so an allocating task would show here) *)
  let _, big = model_of ~scale:0.04 "superblue12" in
  let big_ops = Solver.operators big { Config.default with num_domains = 2 } in
  Alcotest.(check bool) "superblue12 at 0.04 runs chunked" true
    (big_ops.Mclh_lcp.Mmsim.chunks >= 2);
  let big_words = words_of big_ops ~q:(Solver.rhs_q big) in
  List.iter
    (fun accel ->
      ignore (big_words ~accel 12);
      let lo = big_words ~accel 20 and hi = big_words ~accel 50 in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "chunked minor words per 30 iterations (depth %d)" accel)
        0.0 (hi -. lo))
    [ 0; 8 ];
  let words = words_of ops ~q in
  ignore (words 3) (* warm up: first entry may trigger lazy init *);
  let lo = words 10 and hi = words 110 in
  Alcotest.(check (float 0.0))
    "minor words per 100 steady-state iterations" 0.0 (hi -. lo);
  (* the warm-start path (explicit s0, as the incremental engine passes)
     copies s0 once up front and must stay allocation-free per iteration *)
  let s0 =
    Mclh_linalg.Vec.init
      (model.Model.nvars + Model.num_constraints model)
      (fun i -> 0.25 *. float_of_int (i mod 7))
  in
  ignore (words ~s0 3);
  let lo = words ~s0 10 and hi = words ~s0 110 in
  Alcotest.(check (float 0.0))
    "warm-start minor words per 100 steady-state iterations" 0.0 (hi -. lo);
  (* Anderson acceleration preallocates its history and Gram scratch, so
     depth > 0 must preserve the zero-allocation steady state *)
  ignore (words ~accel:8 12);
  let lo = words ~accel:8 20 and hi = words ~accel:8 120 in
  Alcotest.(check (float 0.0))
    "accelerated minor words per 100 steady-state iterations" 0.0 (hi -. lo);
  (* ... and so must a history reset and the refill after it. A start
     whose differences square to infinity makes the extrapolation
     non-finite, which resets the history; the reference solve (bit-
     identical, see test_lcp.ml) shows at which iterations *)
  let huge =
    Mclh_linalg.Vec.init (Mclh_linalg.Vec.dim s0) (fun i ->
        1e155 *. float_of_int ((i mod 7) - 3))
  in
  let probe = 400 in
  let _, resets =
    Mmsim_ref.solve ~options:(options ~accel:8 probe) ~s0:huge ops ~q
  in
  match List.rev resets with
  | [] -> Alcotest.failf "no history reset within %d iterations" probe
  | last :: _ ->
    (* from before the first reset to a full depth-8 refill after the last *)
    let lo = words ~s0:huge ~accel:8 (List.hd resets - 1)
    and hi = words ~s0:huge ~accel:8 (last + 8 + 1) in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "accelerated minor words over resets %d..%d and the refill"
         (List.hd resets) last)
      0.0 (hi -. lo)

(* ---------- shard key ---------- *)

(* fft_2 at 0.04 with 15% blockage in 32 rectangles: 167 shards, from
   single subcells to a few hundred variables with multi-row chains *)
let key_model () =
  snd
    (model_of
       ~options:{ blockage_options with blockage_count = 32 }
       ~scale:0.04 "fft_2")

let test_shard_key_matches_oracle () =
  let model = key_model () in
  let shards = (Decompose.analyze model).Decompose.shards in
  Alcotest.(check bool) "many shards" true (Array.length shards > 100);
  Array.iteri
    (fun i shard ->
      if Decompose.shard_key model shard <> Shard_key_ref.shard_key model shard
      then Alcotest.failf "shard %d: key differs from the closure oracle" i)
    shards

(* the only words a key allocates are its result: the 4-tuple (5 words)
   and its two boxed int64s (3 words each), whatever the shard's size *)
let test_shard_key_no_alloc () =
  let model = key_model () in
  let shards = (Decompose.analyze model).Decompose.shards in
  let words =
    Array.fold_left (fun acc s -> acc + Decompose.shard_dim s) 0 shards
  in
  let rounds = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    Array.iter
      (fun shard ->
        ignore (Sys.opaque_identity (Decompose.shard_key model shard)))
      shards
  done;
  let allocated = Gc.minor_words () -. before in
  let per_key = allocated /. float_of_int (rounds * Array.length shards) in
  if per_key > 11.5 then
    Alcotest.failf
      "%.1f minor words per key over %d mixed words a round (want <= 11)"
      per_key words

let () =
  Alcotest.run "decompose"
    [ ( "structure",
        [ Alcotest.test_case "partition validity" `Quick test_partition_valid;
          Alcotest.test_case "component ids" `Quick test_component_ids_cover;
          QCheck_alcotest.to_alcotest test_shards_are_components;
          Alcotest.test_case "shard D is the full D restricted" `Quick
            test_shard_d_is_restriction ] );
      ( "vs-monolithic",
        [ Alcotest.test_case "fixed designs" `Quick test_matches_monolithic;
          QCheck_alcotest.to_alcotest test_matches_monolithic_property;
          Alcotest.test_case "single-component fallback" `Quick
            test_single_component_fallback ] );
      ( "bit-identity",
        [ Alcotest.test_case "across domain counts" `Quick
            test_domain_count_bit_identity;
          QCheck_alcotest.to_alcotest test_relabel_invariance ] );
      ( "allocation",
        [ Alcotest.test_case "zero alloc per iteration" `Quick
            test_zero_alloc_per_iteration ] );
      ( "shard key",
        [ Alcotest.test_case "key = closure oracle on fft_2 0.04 blockages"
            `Quick test_shard_key_matches_oracle;
          Alcotest.test_case "key allocates only its result" `Quick
            test_shard_key_no_alloc ] ) ]
