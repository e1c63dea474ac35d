(** A reusable domain pool for the repository's embarrassingly parallel
    stages (fence territories, benchmark fan-out, the solver's shard
    fan-out, model-build chunks).

    Worker domains persist across jobs and park between submissions, so
    the many short fan-outs of one process (an ECO session's batches, a
    daemon's requests) pay one broadcast per job, not a domain spawn.
    The pool is non-reentrant by design: a nested parallel
    call from inside a running job degrades to the sequential path
    instead of oversubscribing the machine. Work partitioning is
    index-deterministic and parallel writes target disjoint slices, so
    parallel and sequential execution produce bit-identical results.

    The busy claim is a single atomic compare-and-set, so concurrent
    submissions from several {e system threads} (the [Mclh_serve] daemon's
    per-connection workers, each re-solving a different session) are safe:
    exactly one claims the pool, every other falls back to its sequential
    path — and since parallel and sequential execution are bit-identical,
    contention affects only scheduling, never results. *)

type t

val max_domains : int
(** [128]: the most domains the OCaml 5.1 runtime runs at once
    ([Max_domains]). A larger degree could never start. *)

val create : num_domains:int -> t
(** A pool of parallelism degree [num_domains] (the submitting domain
    participates; [num_domains - 1] worker domains are spawned).
    [num_domains = 1] spawns nothing and runs everything sequentially.
    @raise Invalid_argument if [num_domains] lies outside
      [1..max_domains]; no domain is spawned then. *)

val size : t -> int
(** The pool's parallelism degree. *)

val oversubscribed : t -> bool
(** True when the pool's degree exceeds the hardware parallelism
    ([Domain.recommended_domain_count ()]). Fan-out on an oversubscribed
    pool still produces identical results but merely timeslices domains
    on shared cores while paying cross-domain minor-GC rendezvous; cost-
    sensitive callers should prefer their sequential path. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent; subsequent parallel calls on
    the pool fall back to sequential execution. Pools obtained from
    {!get} / {!default} are process-lifetime and need no shutdown. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] applies [f] to every element, dynamically
    load-balanced over the pool, and collects results in index order.
    If any application raises, the first exception is re-raised in the
    caller after all workers finish. Runs sequentially when the pool is
    degenerate, busy (nested call), or [arr] has fewer than two
    elements. *)

val parallel_iter_weighted :
  ?min_chunk_weight:int -> t -> weight:(int -> int) -> f:(int -> unit) -> int array -> unit
(** [parallel_iter_weighted pool ~weight ~f order] applies [f] to every
    element of [order] (a caller-chosen processing order, typically
    heaviest first), grouping consecutive elements into chunks of at
    least [min_chunk_weight] total weight; each chunk is one dynamically
    load-balanced pool job. This keeps per-job dispatch and closure
    overhead proportional to the chunk count when [order] holds tens of
    thousands of tiny items, while heavy items still occupy a job of
    their own. Chunk boundaries depend only on [order] and [weight] —
    never the pool size — and [f] runs exactly once per element, so
    disjoint-write workloads get bit-identical results on any degree
    (including the sequential fallback, taken in the same situations as
    {!parallel_map}). *)

val parallel_iter_chunks : ?min_chunk:int -> t -> int -> f:(int -> int -> unit) -> unit
(** [parallel_iter_chunks pool n ~f] covers the index range [0, n) with
    disjoint contiguous chunks, calling [f lo hi] for each (the chunk is
    [lo, hi)). Chunks are statically partitioned over the pool members;
    [min_chunk] bounds how finely the range is split (a range of at most
    [min_chunk] indices is processed by the caller alone). Falls back to
    a single [f 0 n] call in the same situations as {!parallel_map}. *)

val default_num_domains : unit -> int
(** The [MCLH_DOMAINS] environment override when set, otherwise
    [min 8 (Domain.recommended_domain_count ())]. The override is taken
    as written, not clamped: a value outside [1..max_domains] comes back
    as it is, and one that is not an integer comes back as [0], so that
    {!create} and [Mclh_core.Config.validate] reject it before any
    domain starts. *)

val get : num_domains:int -> t
(** The shared process-lifetime pool of the given degree (created on
    first use). Layers that are handed the same degree — the bench
    fan-out, {!Mclh_core.Fence} territories, the solver's shard fan-out —
    therefore share one pool, whose busy flag serializes nested use.
    @raise Invalid_argument as {!create} does. *)

val default : unit -> t
(** [get ~num_domains:(default_num_domains ())]. *)
