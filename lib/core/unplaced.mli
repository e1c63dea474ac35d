(** Typed legalization failure: the design (or a territory of it) exceeds
    what a legalizer can place, and these are the cells left over.

    Every legalizer in the repository returns
    [(Placement.t, Unplaced.t) result] instead of raising: the [partial]
    placement keeps the unplaceable cells at their clamped input
    positions so the flow can still measure, report and exit with a
    meaningful status (the CLI maps a nonempty failure to exit 2). *)

open Mclh_circuit

type t = {
  stage : string;  (** which legalizer gave up (e.g. ["greedy"]) *)
  cells : int list;  (** unplaceable cell ids, sorted *)
  partial : Placement.t;
      (** every other cell legally placed; the listed cells sit at their
          clamped input positions (overlapping whatever is there) *)
  detail : string;  (** one-line diagnosis for logs/stderr *)
}

val make :
  stage:string -> cells:int list -> partial:Placement.t -> detail:string -> t
(** Sorts and de-duplicates [cells]. *)
