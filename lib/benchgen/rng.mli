(** Deterministic pseudo-random numbers (splitmix64).

    Every random choice in the benchmark generator flows through a seeded
    stream, so instances are reproducible bit-for-bit across runs and
    machines — a requirement for comparing legalizers on "the same"
    benchmark. *)

type t

val create : int -> t
(** Stream seeded by the given integer. *)

val of_string : string -> t
(** Stream seeded by a string (FNV-1a hash); used to derive one stream per
    benchmark name. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive.
    Exactly uniform: draws are rejection-sampled, so there is no modulo
    bias toward the low residues. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive; requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
