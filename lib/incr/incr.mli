(** Incremental ECO re-legalization.

    A session holds a legalized design plus the solver state that produced
    it — the x-LCP model, its component decomposition and the final MMSIM
    modulus vector — and re-legalizes {!Edit} batches at a fraction of the
    full-flow cost. Four mechanisms stack:

    - {b patched model}: a batch of moves and resizes keeps the cell
      numbering, so the session redoes [Model.build]'s first two steps
      only where the batch reaches ({!Mclh_core.Model.patch}): the
      touched cells choose their segments again, and only the dirty rows
      — the rows touched cells leave or enter — are sorted again. The
      other rows are the old model's, copied. Inserts and deletes
      renumber the cells and lay every row out again.
    - {b clean components}: the LCP splits into exact independent
      components ({!Mclh_core.Decompose}), so an edit can only change the
      components it reaches. A component is clean when it holds no
      touched cell and no ordering group that lost a member (a touched
      cell left its row segment); it is then a component of the old
      model with the same content, so its key and its slices of the
      solution carry over by index, and it is neither planned, keyed nor
      looked up. It counts as a cache hit, as the lookup would have
      been. Only the other components are planned and keyed.
    - {b solution cache}: each shard's sub-LCP is fingerprinted over its
      pure LCP content — dimensions, local group/chain structure, [p] and
      [b_rhs] — deliberately excluding cell ids, so insert/delete
      renumbering cannot poison it and moving a cell back re-hits the old
      entry. Equal LCPs have equal (unique) solutions, so a hit skips the
      solve entirely.
    - {b warm start}: cache misses re-solve with [?s0] built from the
      previous modulus vector, carried across the rebuild by index
      ({!warm_s0}): a variable of an untouched cell from the old
      variable of the same (pre-batch cell, row offset), a constraint
      from the old constraint between the two old variables when they
      are adjacent in one old group; unmapped entries fall back to the
      paper's plain start.

    The fixed point of each sub-LCP is unique, so a session's relaxed
    solution matches a cold full re-legalization of the same design to
    within the iteration tolerance regardless of cache and warm-start
    history. The snapped placement need not: a subcell that a cold run
    and the session leave a hair apart on either side of a site boundary
    snaps to different sites, and Tetris repair can carry that on to its
    neighbours, so at the default [eps] a cell can land whole sites (or
    rows) away from its cold position: up to 12 sites on six-batch
    far-move replays of fft_2 at scale 0.02 with 15% blockage. A tighter
    [eps] (1e-3 on those replays) makes the placements equal. The test
    suite asserts the equivalence at a tight tolerance, and
    [mclh eco --verify] reports the largest placement difference batch
    by batch.

    Sessions are single-threaded on the outside (one [apply] at a time);
    cache misses go through the cold solver's own per-shard fan-out
    ({!Mclh_core.Solver.solve_shards}), so they solve on the domain pool
    exactly as a cold solve would. The restriction is {e enforced}: overlapping
    [apply] calls from a threaded host are rejected with {!Busy} /
    [Error `Busy] instead of silently corrupting the session (see
    {!try_apply}). Fence regions are not supported — create a session per
    territory instead. *)

open Mclh_circuit
open Mclh_core

type stats = {
  edits : int;  (** edits in the batch *)
  touched_cells : int;  (** cells moved, resized or inserted *)
  dirty_components : int;
      (** components containing a touched cell's variables *)
  components : int;  (** total components after the batch *)
  dirty_shards : int;  (** shards re-solved (fingerprint misses) *)
  shards : int;
      (** total shards after the batch; every shard is one component, so
          this always equals [components] *)
  cache_hits : int;  (** shards reused from the solution cache *)
  solve_iterations : int;  (** MMSIM iterations summed over re-solves *)
  max_iterations : int;  (** largest single re-solve iteration count *)
  converged : bool;  (** every re-solve converged *)
  mismatch : float;  (** subcell mismatch of the assembled solution *)
  latency_s : float;  (** wall-clock time of the whole [apply] *)
}

type t

val create : ?config:Config.t -> ?obs:Mclh_obs.Obs.t -> Design.t -> t
(** Runs the full flow once ({!Flow.run}) and wraps the result in a
    session, seeding the cache with every shard's slice of the flow's
    solution. A shard is one connected component, as in the cold solve,
    so the dirty set and the cache keys stay minimal. The config is fixed
    for the session's lifetime.
    [obs] is shared across the initial legalization and every later
    {!apply}.
    @raise Invalid_argument on fenced designs or an invalid config. *)

val design : t -> Design.t
(** The current design (reflects all applied batches). *)

val legal : t -> Placement.t
(** The current legal placement. *)

val num_batches : t -> int

val cache_entries : t -> int
(** Live solution-cache entries (the cache is capped; see [incr.ml]). *)

exception Busy
(** Raised by {!apply} when another [apply] on the same session is still
    in flight (sessions are single-threaded on the outside; see
    {!try_apply}). *)

val busy : t -> bool
(** True while an {!apply} is in flight on this session. Advisory only —
    the session may become busy (or free) between this read and a
    subsequent call; use {!try_apply} to claim it atomically. *)

val apply : t -> Edit.t list -> stats
(** Applies one edit batch and re-legalizes. All cell ids in the batch
    refer to the design as of the start of the batch; deletions compact
    ids (later cells shift down one) and insertions append after the
    survivors, in edit order, taking effect together when [apply]
    returns.

    [obs] (from {!create}) records per-batch counters
    [incr/{batches,edits,touched_cells,dirty_components,dirty_shards,
    cache_hits,solve_iterations}], the [incr/{assign,model,solve,alloc,
    total}] spans and an [incr/mismatch] gauge. The warm-start
    convergence samples of every re-solved shard append, batch after
    batch and in shard order, to one session trace
    [incr/solve/delta_inf] that {!create} attaches, so a long-lived
    session (an [mclh serve] client) records a fixed set of names in
    bounded memory.

    @raise Invalid_argument on an edit referencing an out-of-range or
      already-deleted cell, a non-positive resize/insert dimension, a
      move or insert to a NaN or infinite coordinate, or a batch that
      deletes every cell; the session is then unchanged.
    @raise Failure if an edit leaves a cell no admissible row or the
      Tetris stage cannot place a cell (design over capacity).
    @raise Busy when another [apply] on this session is still in
      flight — the batch is not applied and the session is unchanged. *)

val try_apply : t -> Edit.t list -> (stats, [ `Busy ]) result
(** Like {!apply} but returns [Error `Busy] instead of raising {!Busy}
    when the session is already applying a batch. The claim is a single
    atomic compare-and-set, so exactly one of any set of concurrent
    callers wins; the session is released when the apply returns or
    raises. Domain-level failures ([Invalid_argument], [Failure]) leave
    the session's design and placement at their pre-batch state. *)

(**/**)

(* Exposed for the test oracles, not a stable interface. *)

val apply_edits : Design.t -> Edit.t list -> Design.t * int array * bool array
(** [apply_edits design batch] is the post-batch design, [old_of_new]
    (new cell id -> pre-batch id, -1 for inserts) and the touched flags
    (moved, resized or inserted) in new numbering. A batch without
    inserts or deletes patches: it keeps the numbering, the netlist and
    every unresized [Cell.t]. *)

val warm_s0 :
  Model.t ->
  x:Mclh_linalg.Vec.t ->
  r:Mclh_linalg.Vec.t ->
  s:Mclh_linalg.Vec.t ->
  Model.t ->
  old_of_new:int array ->
  touched:bool array ->
  Mclh_linalg.Vec.t * Mclh_linalg.Vec.t * Mclh_linalg.Vec.t
(** [warm_s0 old_model ~x ~r ~s model' ~old_of_new ~touched] carries the
    solution [(x, r, s)] of [old_model] to [model'], built on the design
    {!apply_edits} returned with untouched cells on their old rows, and
    returns [(s0, x', r')]: the modulus vector every batch warm-starts
    from, and the positions and multipliers clean components keep.
    Variables carry from the old variable of the same (pre-batch cell,
    row offset): the old hub, or the old chain's entry at that offset;
    the new constraint [(u, u + 1)] carries the old constraint
    [ou - group(ou)] when [u] and [u + 1] map to [ou] and [ou + 1] and
    [ou + 1] sits in [ou]'s old group. Touched and inserted cells and
    unmapped constraints keep {!Warm_start.plain_start} in [s0] and 0 in
    [x'] and [r']. *)

val model : t -> Model.t
(** The session's current model: after a move/resize batch, the old
    model patched (its clean rows reused), equal to a cold
    {!Model.build} of {!design} bit for bit. *)

val clean_components : t -> bool array
(** Per component of {!model}, numbered as {!Decompose.components}
    numbers them: whether the last batch carried it over clean, its
    slices and key from the batch before, without planning, keying or
    looking it up. All false after {!create} and after a batch with
    inserts or deletes. *)
