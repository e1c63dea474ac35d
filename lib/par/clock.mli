(** Wall-clock timing for runtime reporting.

    [Sys.time] measures processor time summed over all domains: it
    over-counts multicore work and under-counts blocking, so every
    reported runtime in the repository uses this wall-clock source
    instead. *)

val now : unit -> float
(** Seconds since the epoch ([Unix.gettimeofday]); differences of two
    [now] readings measure elapsed wall-clock time. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f ()] and returns its result with the elapsed
    wall-clock seconds. *)
