(** Run-scoped metrics recorder: counters, span timers, convergence traces.

    One recorder ([t]) collects everything a single legalization run (or
    bench kernel) wants to report: monotonic integer counters, float
    gauges, cumulative wall-clock spans ({!Mclh_par.Clock}), bounded
    {!Trace} ring buffers, and nested sub-reports (e.g. one per fence
    territory). {!Run_report} serializes a recorder to the versioned JSON
    artifact.

    {b Gating.} Instrumented code receives a [t option] and every
    recording helper takes the option directly: with [None] each call is
    a single branch and zero allocation, so the instrumentation compiles
    to near-zero overhead when metrics are off — in particular the MMSIM
    steady state stays allocation-free (asserted in [test_decompose.ml]).
    Passing a recorder is the one metrics switch: the CLI creates one when
    [--metrics-out] is given or the [MCLH_METRICS] environment gate
    ({!enabled_from_env}) is set.

    {b Threading.} A recorder itself is not thread-safe; parallel stages
    (pool jobs) create their own recorder or trace per job and the
    orchestrating thread aggregates after fan-in — the same discipline the
    solver uses for result scattering. *)

type t

val create : unit -> t

val enabled_from_env : unit -> bool
(** The [MCLH_METRICS] environment gate: [true] for ["1"], ["true"],
    ["on"], ["yes"]. *)

(** {1 Recording} — all no-ops on [None] *)

val incr : t option -> string -> unit
(** Increment a named monotonic counter (created at 0 on first use). *)

val add : t option -> string -> int -> unit
(** Add to a named counter. *)

val gauge : t option -> string -> float -> unit
(** Set a named float gauge (last write wins). *)

val record_span : t option -> string -> float -> unit
(** Add elapsed seconds to a named cumulative span. *)

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span obs name f] runs [f] and records its wall-clock duration under
    [name]; with [None] it is exactly [f ()]. *)

val new_trace : t option -> string -> capacity:int -> Trace.t option
(** Create and attach a ring-buffer trace; [None] when metrics are off
    (callers skip recording entirely). *)

val attach_trace : t option -> string -> Trace.t -> unit
(** Attach a trace created elsewhere (e.g. inside a pool job). *)

val sub : t option -> string -> Mclh_report.Json.t -> unit
(** Attach a nested sub-report (e.g. a fence territory's own report). *)

val peak_rss_kb : unit -> int option
(** Peak resident set size of this process in kB, read from the [VmHWM]
    line of [/proc/self/status]. A kernel-maintained process-lifetime
    high-water mark: one file read, no sampling thread, but values only
    ever grow across a process (callers measuring several runs in one
    process should order them smallest-first if they want per-run
    peaks). [None] on platforms without procfs. *)

(** {1 Read-back} — name-sorted for deterministic serialization *)

val counters : t -> (string * int) list
val gauges : t -> (string * float) list
val spans : t -> (string * float) list
val traces : t -> (string * Trace.t) list
val subs : t -> (string * Mclh_report.Json.t) list

val counter_value : t -> string -> int
(** [0] for a counter never touched. *)

val find_trace : t -> string -> Trace.t option
