(** Bounded ring-buffer traces of float samples.

    Built for per-iteration convergence traces (MMSIM residual
    [delta_inf], per-component iteration counts): the buffer is allocated
    once and {!record} performs no allocation whatsoever, so tracing can
    ride inside the allocation-free MMSIM steady state without perturbing
    it. When more samples arrive than the capacity holds, the oldest are
    overwritten — the trace keeps the {e tail} of the run, which is the
    part that shows how convergence ended. *)

type t

val create : capacity:int -> t
(** A trace retaining the last [capacity] samples.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val record : t -> float -> unit
(** Appends one sample, overwriting the oldest once full. Performs zero
    minor-heap allocation. *)

val length : t -> int
(** Samples currently retained ([min recorded capacity]). *)

val recorded : t -> int
(** Total samples ever recorded, including overwritten ones. *)

val to_array : t -> float array
(** The retained samples, oldest first. *)

val last : t -> float option
(** The most recent sample. *)
