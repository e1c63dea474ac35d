(** Connected-component decomposition of the x-direction LCP.

    The KKT system of Problem (13) is block-separable: subcell variables
    are coupled only by same-segment ordering constraints (the groups of
    [Model.row_vars]) and by the equality chains of multi-row cells. A
    union-find pass over those two relations splits the [(n + m)]-
    dimensional LCP into exact independent components; each is extracted
    as a self-contained {!Model.t} (with index maps back to the global
    variable and constraint numbering) and can be solved on its own
    domain, then scattered back. The component blocks never interact, so
    the only deviation from the monolithic solve is the stopping
    schedule: each component iterates to its own tolerance instead of the
    global maximum — which is also where the speedup beyond parallelism
    comes from.

    Every component is one shard, the unit the solver schedules, the
    incremental engine caches and every report counts. The partition
    depends only on the model, never on the domain count, so decomposed
    solves are bit-identical across [Config.num_domains] settings; the
    pool only decides which domain solves which shard.

    {!analyze} only plans the partition (cheap, O(n + m)); the sub-model
    of a shard is materialized on demand by {!extract}, which the solver
    calls inside each parallel shard job so extraction runs off the
    critical path. *)

type shard = {
  vars : int array;  (** local variable -> global variable, ascending *)
  cons : int array;  (** local constraint -> global constraint, ascending *)
  groups : int array array;
      (** the ordering groups ([Model.row_vars]) falling in this shard,
          renumbered to local variable ids, in global order *)
  chains : int array array;
      (** the multi-row equality chains falling in this shard, local ids,
          in global order *)
}

type t = {
  model : Model.t;
  comp_of_var : int array;
      (** dense component id per global variable, numbered by first
          appearance in variable order *)
  num_components : int;
  largest_dim : int;
      (** the largest {!shard_dim} (variables + constraints) *)
  shards : shard array;
      (** one per component, in component-id order. A single component
          (or a model without variables) is one shard covering every
          variable and constraint in the model's own numbering *)
}

val analyze : Model.t -> t
(** Partitions the model: {!components}, then {!plan} of every
    component (one shard covering the model when there is only one).
    O(n alpha(n) + m). *)

val components : Model.t -> int array * int
(** [(comp_of_var, num_components)]: union-find over the ordering groups
    and the equality chains, components numbered by first appearance in
    variable order. *)

val plan :
  Model.t ->
  comp_of_var:int array ->
  num_components:int ->
  int array ->
  shard array
(** [plan model ~comp_of_var ~num_components ids] plans the shards of
    the components [ids] only (distinct), in that order. One pass over
    the variables, the groups and the chains; it allocates only for the
    shards asked for, each equal to its shard in {!analyze}. *)

val extract : Model.t -> shard -> Model.t
(** [extract model shard] materializes the shard's self-contained
    sub-model; a shard covering the whole model yields [model] itself
    (nothing is copied). Solver-facing: [nvars], [row_vars], [b_rhs],
    [p], [shift] and [blocks] are fully renumbered; the per-cell tables
    ([first_var]) are not meaningful on a sub-model, so
    {!Model.placement_of} and {!Model.cell_positions} must only be called
    on the parent. The local groups keep the parent's ascending runs, so
    they tile the shard's variables in order and carry the shard's B
    exactly as [Model.build]'s groups carry the model's; nothing builds
    a matrix. *)

val num_components : t -> int

val largest_dim : t -> int

val shard_dim : shard -> int
(** Variables + constraints of a shard — the size of the LCP {!extract}
    yields for it. *)

val scatter_vars : shard -> Mclh_linalg.Vec.t -> Mclh_linalg.Vec.t -> unit
(** [scatter_vars shard local global] writes the shard's local variable
    vector into the global one through the index map. *)

val scatter_cons : shard -> Mclh_linalg.Vec.t -> Mclh_linalg.Vec.t -> unit

val restrict : Model.t -> shard -> Mclh_linalg.Vec.t -> Mclh_linalg.Vec.t
(** [restrict model shard s] is the shard's slice of a global vector in
    the MMSIM modulus layout (length [n + m]: variables, then constraints
    from index [n]), in the shard's local layout (its variables, then its
    constraints). Start vectors and final moduli move between a model and
    its shards through this and {!scatter}. *)

val scatter : Model.t -> shard -> Mclh_linalg.Vec.t -> Mclh_linalg.Vec.t -> unit
(** [scatter model shard local global] is the inverse of {!restrict}: it
    writes the shard's local modulus-layout vector into the global one.
    Restricting and then scattering over all shards of a decomposition
    reproduces any global vector exactly. *)

val shard_key : Model.t -> shard -> Int64.t * Int64.t * int * int
(** A 128-bit fingerprint (two independent rolling hashes, plus the
    dimensions in clear) of the shard's pure LCP content: dimensions,
    local group/chain structure, [p] and [b_rhs]. Global ids and [shift]
    are deliberately excluded, so insert/delete renumbering preserves the
    key. Equal sub-LCPs have equal unique solutions, which makes a cache
    keyed on this sound up to hash collisions — the incremental engine
    ({!Mclh_incr}) relies on it, and the solver's exact-start test
    ({!Warm_start.exact}) reads the same structural features. *)
