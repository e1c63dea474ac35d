(** A reusable domain pool for the repository's embarrassingly parallel
    stages (fence territories, benchmark fan-out, the solver's shard
    fan-out, model-build chunks) and for the passes of one large shard's
    MMSIM iteration ({!region}, about a dozen per iteration).

    Worker domains persist across jobs and park between submissions, so
    the many short fan-outs of one process (an ECO session's batches, a
    daemon's requests) pay one broadcast per job, not a domain spawn.
    The pool is non-reentrant by design: a nested parallel
    call from inside a running job degrades to the sequential path
    instead of oversubscribing the machine. Every fan-out is one pull
    loop ({!region}) that runs each element exactly once, and
    parallel writes target disjoint slices, so parallel and sequential
    execution produce bit-identical results.

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

val region : t -> int -> (int -> unit) -> unit
(** [region pool n f] runs [f 0], ..., [f (n - 1)], each exactly once,
    and returns when all have finished: the members pull indices off a
    shared counter, so the caller's index order (typically heaviest
    first) is the dispatch order, the load balances itself, and the
    region is one barrier however many tasks it holds. It is the pool's
    one fan-out primitive; the pull loop and its counter are preallocated
    in the pool, so a region allocates nothing when [f] is a closure
    built once, which suits a hot loop that enters many short regions.
    If a task raises, the first exception is re-raised in the caller
    after all members finish. Runs sequentially, in index order, when the
    pool is degenerate, stopped, busy (nested call), or [n < 2]; with
    disjoint writes both paths give bit-identical results. *)

val parallel_iter : t -> ('a -> unit) -> 'a array -> unit
(** [parallel_iter pool f arr] is [region pool (Array.length arr)
    (fun i -> f arr.(i))]: [f] is applied to every element exactly once,
    in array order when sequential. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f arr] is a {!region} over [arr]'s indices
    collecting the results in index order. *)

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
