open Mclh_linalg

(* Connected-component decomposition of the x-direction LCP.

   Variables interact only through
     - ordering constraints, which couple adjacent subcells of the same
       row segment (every group of [Model.row_vars] is connected through
       its adjacency chain), and
     - subcell-equality chains, which couple the rows spanned by one
       multi-row cell.
   Union-find over those two relations therefore partitions the KKT
   system [[Q~, -B^T]; [B, 0]] into exact block-diagonal components: a
   constraint's two variables always share a component, and Q~ = I +
   lambda E^T E never couples across components because every E chain is
   contained in one. Each component is an independent LCP that can be
   extracted, solved, and scattered back with no approximation beyond the
   iteration tolerance.

   [analyze] only plans the partition (index maps and renumbered
   group/chain structure — O(n + m) and cheap); materializing a shard's
   sub-model is deferred to [extract] so the solver can run it inside the
   parallel shard jobs instead of on the critical path. *)

type shard = {
  vars : int array; (* local variable -> global variable, ascending *)
  cons : int array; (* local constraint -> global constraint, ascending *)
  groups : int array array; (* [Model.row_vars] restricted, local ids *)
  chains : int array array; (* equality chains restricted, local ids *)
}

type t = {
  model : Model.t;
  comp_of_var : int array; (* dense component ids, by first appearance *)
  num_components : int;
  largest_dim : int; (* max over shards of vars + constraints *)
  shards : shard array; (* one per component; a single one is the whole model *)
}

(* ---------- union-find ---------- *)

let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let r = find parent p in
    parent.(i) <- r;
    r
  end

let union parent rank a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then
    if rank.(ra) < rank.(rb) then parent.(ra) <- rb
    else if rank.(ra) > rank.(rb) then parent.(rb) <- ra
    else begin
      parent.(rb) <- ra;
      rank.(ra) <- rank.(ra) + 1
    end

(* group [g] of [row_vars] starts at this constraint id; groups emit their
   constraints consecutively in order (see [Model.build]) *)
let constraint_bases (model : Model.t) =
  let bases = Array.make (Array.length model.row_vars) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun g vars ->
      bases.(g) <- !acc;
      acc := !acc + max 0 (Array.length vars - 1))
    model.row_vars;
  bases

(* constraint id -> (left, right) global variable pair, in build order:
   group g emits the adjacent pairs (vars.(k), vars.(k+1)) consecutively
   starting at bases.(g). The pair is the constraint's identity across
   model rebuilds — incremental callers key old-to-new constraint maps on
   it. *)
let constraint_pairs (model : Model.t) =
  let m = Model.num_constraints model in
  let pairs = Array.make m (0, 0) in
  let acc = ref 0 in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 2 do
        pairs.(!acc) <- (vars.(k), vars.(k + 1));
        incr acc
      done)
    model.row_vars;
  pairs

let components (model : Model.t) =
  let n = model.nvars in
  let parent = Array.init n Fun.id and rank = Array.make n 0 in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 2 do
        union parent rank vars.(k) vars.(k + 1)
      done)
    model.row_vars;
  for c = 0 to Blocks.num_chains model.blocks - 1 do
    let vars = Blocks.chain_vars model.blocks c in
    for k = 1 to Array.length vars - 1 do
      union parent rank vars.(0) vars.(k)
    done
  done;
  (* dense component ids in order of first appearance, so everything
     downstream is deterministic in the global variable order *)
  let comp_of_var = Array.make n (-1) in
  let comp_of_root = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    let r = find parent v in
    if comp_of_root.(r) = -1 then begin
      comp_of_root.(r) <- !count;
      incr count
    end;
    comp_of_var.(v) <- comp_of_root.(r)
  done;
  (comp_of_var, !count)

(* ---------- shard planning ---------- *)

(* One shard per component, numbered like the components. The shard
   contents depend only on the model — never on [num_domains] — so
   results are identical whatever the pool size. *)
let plan_shards (model : Model.t) ~comp_of_var ~num_components =
  let n = model.nvars in
  (* local variable numbering: ascending global order within each shard *)
  let local_of_var = Array.make n 0 in
  let shard_nvars = Array.make num_components 0 in
  for v = 0 to n - 1 do
    let s = comp_of_var.(v) in
    local_of_var.(v) <- shard_nvars.(s);
    shard_nvars.(s) <- shard_nvars.(s) + 1
  done;
  let vars = Array.init num_components (fun s -> Array.make shard_nvars.(s) 0) in
  for v = 0 to n - 1 do
    vars.(comp_of_var.(v)).(local_of_var.(v)) <- v
  done;
  (* groups and their constraints, in global order per shard *)
  let bases = constraint_bases model in
  let groups_rev = Array.make num_components [] in
  let cons_rev = Array.make num_components [] in
  Array.iteri
    (fun g gvars ->
      if Array.length gvars > 0 then begin
        let s = comp_of_var.(gvars.(0)) in
        groups_rev.(s) <-
          Array.map (fun v -> local_of_var.(v)) gvars :: groups_rev.(s);
        for k = 0 to Array.length gvars - 2 do
          cons_rev.(s) <- (bases.(g) + k) :: cons_rev.(s)
        done
      end)
    model.row_vars;
  let chains_rev = Array.make num_components [] in
  for c = Blocks.num_chains model.blocks - 1 downto 0 do
    let cvars = Blocks.chain_vars model.blocks c in
    let s = comp_of_var.(cvars.(0)) in
    chains_rev.(s) <-
      Array.map (fun v -> local_of_var.(v)) cvars :: chains_rev.(s)
  done;
  Array.init num_components (fun s ->
      { vars = vars.(s);
        cons = Array.of_list (List.rev cons_rev.(s));
        groups = Array.of_list (List.rev groups_rev.(s));
        chains = Array.of_list chains_rev.(s) })

(* the one shard covering the whole model, in the model's own numbering:
   what a single component plans *)
let whole_shard (model : Model.t) =
  { vars = Array.init model.nvars Fun.id;
    cons = Array.init (Model.num_constraints model) Fun.id;
    groups = model.row_vars;
    chains =
      Array.init
        (Blocks.num_chains model.blocks)
        (Blocks.chain_vars model.blocks) }

(* ---------- sub-model extraction ---------- *)

let extract_part (model : Model.t) shard =
  let sub_n = Array.length shard.vars in
  let sub_m = Array.length shard.cons in
  { model with
    Model.nvars = sub_n;
    (* per-cell lookup tables are global-model notions; sub-models are
       solver-facing only (placement_of is never called on one) *)
    first_var = [||];
    var_cell = Array.map (fun v -> model.var_cell.(v)) shard.vars;
    var_row = Array.map (fun v -> model.var_row.(v)) shard.vars;
    row_vars = shard.groups;
    (* the local numbering keeps the model's ascending group runs, so B
       restricted to the shard is the groups' own CSR; b_rhs carries the
       global separations over unchanged *)
    b_mat = Lazy.from_val (Model.csr_of_groups ~nvars:sub_n ~m:sub_m shard.groups);
    b_rhs = Array.init sub_m (fun i -> model.b_rhs.(shard.cons.(i)));
    p = Array.map (fun v -> model.p.(v)) shard.vars;
    shift = Array.map (fun v -> model.shift.(v)) shard.vars;
    blocks = Blocks.of_array ~nvars:sub_n shard.chains;
    (* the parent's D couples only globally consecutive constraints; a
       shard must not add a coupling between constraints that merely
       became neighbours in its local numbering *)
    d_split =
      Array.init (max 0 (sub_m - 1)) (fun i ->
          shard.cons.(i + 1) <> shard.cons.(i) + 1) }

(* shards partition the variables, so a shard holding all of them is the
   whole model: its sub-model is the model itself, copied nowhere *)
let extract (model : Model.t) shard =
  if Array.length shard.vars = model.nvars then model
  else extract_part model shard

let shard_dim shard = Array.length shard.vars + Array.length shard.cons

let analyze (model : Model.t) =
  let comp_of_var, num_components = components model in
  let shards =
    if num_components <= 1 then [| whole_shard model |]
    else plan_shards model ~comp_of_var ~num_components
  in
  let largest_dim =
    Array.fold_left (fun acc shard -> max acc (shard_dim shard)) 0 shards
  in
  { model; comp_of_var; num_components; largest_dim; shards }

let num_components t = t.num_components
let largest_dim t = t.largest_dim

(* scatter a per-shard solution slice back into a global vector *)
let scatter_vars shard local global =
  Array.iteri (fun i v -> global.(v) <- local.(i)) shard.vars

let scatter_cons shard local global =
  Array.iteri (fun i c -> global.(c) <- local.(i)) shard.cons

(* the modulus layout: variables first, then constraints from [nvars] on;
   a shard's local vector is (its vars; its cons) in the same order *)
let restrict (model : Model.t) shard global =
  let n = model.nvars and sn = Array.length shard.vars in
  Vec.init
    (sn + Array.length shard.cons)
    (fun i ->
      if i < sn then global.(shard.vars.(i)) else global.(n + shard.cons.(i - sn)))

let scatter (model : Model.t) shard local global =
  let n = model.nvars and sn = Array.length shard.vars in
  Array.iteri (fun i v -> global.(v) <- local.(i)) shard.vars;
  Array.iteri (fun i c -> global.(n + c) <- local.(sn + i)) shard.cons

(* Two independent 64-bit rolling hashes over the shard's pure LCP
   content: dimensions, local group/chain structure, [p] and [b_rhs].
   Deliberately excluded: global/cell ids (so insert/delete renumbering
   cannot poison a cache keyed on this) and [shift] (placement
   bookkeeping, not part of the LCP). Equal sub-LCPs have equal unique
   solutions, so a 128-bit key match makes solution reuse mathematically
   sound up to hash collisions. The incremental engine keys its solution
   cache on this; the solver's exact-start test ([Warm_start.exact])
   reads the same structural features (chain count, separation signs)
   when picking a shard's start. *)
let fnv_prime = 0x100000001b3L

let shard_key (model : Model.t) (shard : shard) =
  let h1 = ref 0xcbf29ce484222325L and h2 = ref 0x9e3779b97f4a7c15L in
  let mix v =
    h1 := Int64.mul (Int64.logxor !h1 v) fnv_prime;
    h2 := Int64.logxor (Int64.mul !h2 0x2545f4914f6cdd1dL) v
  in
  let mix_int i = mix (Int64.of_int i) in
  let mix_float f = mix (Int64.bits_of_float f) in
  let sn = Array.length shard.vars in
  let sm = Array.length shard.cons in
  mix_int sn;
  mix_int sm;
  mix_int (Array.length shard.groups);
  Array.iter
    (fun g ->
      mix_int (Array.length g);
      Array.iter mix_int g)
    shard.groups;
  mix_int (Array.length shard.chains);
  Array.iter
    (fun ch ->
      mix_int (Array.length ch);
      Array.iter mix_int ch)
    shard.chains;
  Array.iter (fun v -> mix_float model.Model.p.(v)) shard.vars;
  Array.iter (fun c -> mix_float model.Model.b_rhs.(c)) shard.cons;
  (!h1, !h2, sn, sm)
