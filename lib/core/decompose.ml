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

(* Every ordering group is a run of consecutive ids connected through
   its own constraints, so the union-find runs over the groups, joined
   by the chains, and each component's ids fill whole runs. *)
let components (model : Model.t) =
  let groups = model.row_vars in
  let ng = Array.length groups in
  let starts = Model.group_starts groups in
  (* the group holding variable v: the last start <= v *)
  let group_of v =
    let lo = ref 0 and hi = ref (ng - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if starts.(mid) <= v then lo := mid else hi := mid - 1
    done;
    !lo
  in
  let parent = Array.init ng Fun.id and rank = Array.make ng 0 in
  let blocks = model.blocks in
  for c = 0 to Blocks.num_chains blocks - 1 do
    let g0 = group_of (Blocks.chain_var blocks c 0) in
    for k = 1 to Blocks.chain_length blocks c - 1 do
      union parent rank g0 (group_of (Blocks.chain_var blocks c k))
    done
  done;
  (* dense component ids in order of first appearance, so everything
     downstream is deterministic in the global variable order *)
  let comp_of_var = Array.make model.nvars (-1) in
  let comp_of_root = Array.make ng (-1) in
  let count = ref 0 in
  for g = 0 to ng - 1 do
    let r = find parent g in
    if comp_of_root.(r) = -1 then begin
      comp_of_root.(r) <- !count;
      incr count
    end;
    Array.fill comp_of_var starts.(g)
      (starts.(g + 1) - starts.(g))
      comp_of_root.(r)
  done;
  (comp_of_var, !count)

(* ---------- shard planning ---------- *)

(* The shards of the components [ids], in that order: [slot.(c)] is
   component c's position in [ids], -1 for a component not asked for.
   The contents depend only on the model, never on [num_domains], so
   results are identical whatever the pool size. *)
let plan (model : Model.t) ~comp_of_var ~num_components ids =
  let n = model.nvars in
  let k = Array.length ids in
  let slot = Array.make num_components (-1) in
  Array.iteri (fun j c -> slot.(c) <- j) ids;
  (* local variable numbering: ascending global order within each shard *)
  let local_of_var = Array.make n 0 in
  let shard_nvars = Array.make k 0 in
  for v = 0 to n - 1 do
    let s = slot.(comp_of_var.(v)) in
    if s >= 0 then begin
      local_of_var.(v) <- shard_nvars.(s);
      shard_nvars.(s) <- shard_nvars.(s) + 1
    end
  done;
  let vars = Array.init k (fun s -> Array.make shard_nvars.(s) 0) in
  for v = 0 to n - 1 do
    let s = slot.(comp_of_var.(v)) in
    if s >= 0 then vars.(s).(local_of_var.(v)) <- v
  done;
  (* groups and their constraints, in global order per shard *)
  let starts = Model.group_starts model.row_vars in
  let groups_rev = Array.make k [] in
  let cons_rev = Array.make k [] in
  Array.iteri
    (fun g gvars ->
      let s = slot.(comp_of_var.(gvars.(0))) in
      if s >= 0 then begin
        groups_rev.(s) <-
          Array.map (fun v -> local_of_var.(v)) gvars :: groups_rev.(s);
        for j = 0 to Array.length gvars - 2 do
          cons_rev.(s) <- (starts.(g) - g + j) :: cons_rev.(s)
        done
      end)
    model.row_vars;
  let chains_rev = Array.make k [] in
  for c = Blocks.num_chains model.blocks - 1 downto 0 do
    let s = slot.(comp_of_var.(Blocks.chain_var model.blocks c 0)) in
    if s >= 0 then
      chains_rev.(s) <-
        Array.map (fun v -> local_of_var.(v)) (Blocks.chain_vars model.blocks c)
        :: chains_rev.(s)
  done;
  Array.init k (fun s ->
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
    (* the local numbering keeps the model's ascending group runs, so the
       local groups tile the shard's variables and are B restricted to
       the shard; b_rhs carries the global separations over unchanged *)
    row_vars = shard.groups;
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
    else
      plan model ~comp_of_var ~num_components
        (Array.init num_components Fun.id)
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
let xs_mul = 0x2545f4914f6cdd1dL

(* every word goes through the same two steps, written out at each of
   the eight word sources: a closure over the two hash refs would box
   them, and every mixed word would then allocate *)
let shard_key (model : Model.t) (shard : shard) =
  let h1 = ref 0xcbf29ce484222325L and h2 = ref 0x9e3779b97f4a7c15L in
  let sn = Array.length shard.vars in
  let sm = Array.length shard.cons in
  let ng = Array.length shard.groups in
  let nc = Array.length shard.chains in
  for j = 0 to 2 do
    let w = Int64.of_int (if j = 0 then sn else if j = 1 then sm else ng) in
    h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
    h2 := Int64.logxor (Int64.mul !h2 xs_mul) w
  done;
  for g = 0 to ng - 1 do
    let grp = shard.groups.(g) in
    let w = Int64.of_int (Array.length grp) in
    h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
    h2 := Int64.logxor (Int64.mul !h2 xs_mul) w;
    for k = 0 to Array.length grp - 1 do
      let w = Int64.of_int grp.(k) in
      h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
      h2 := Int64.logxor (Int64.mul !h2 xs_mul) w
    done
  done;
  let w = Int64.of_int nc in
  h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
  h2 := Int64.logxor (Int64.mul !h2 xs_mul) w;
  for c = 0 to nc - 1 do
    let ch = shard.chains.(c) in
    let w = Int64.of_int (Array.length ch) in
    h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
    h2 := Int64.logxor (Int64.mul !h2 xs_mul) w;
    for k = 0 to Array.length ch - 1 do
      let w = Int64.of_int ch.(k) in
      h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
      h2 := Int64.logxor (Int64.mul !h2 xs_mul) w
    done
  done;
  let p = model.Model.p and b_rhs = model.Model.b_rhs in
  for i = 0 to sn - 1 do
    let w = Int64.bits_of_float p.(shard.vars.(i)) in
    h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
    h2 := Int64.logxor (Int64.mul !h2 xs_mul) w
  done;
  for i = 0 to sm - 1 do
    let w = Int64.bits_of_float b_rhs.(shard.cons.(i)) in
    h1 := Int64.mul (Int64.logxor !h1 w) fnv_prime;
    h2 := Int64.logxor (Int64.mul !h2 xs_mul) w
  done;
  (!h1, !h2, sn, sm)
