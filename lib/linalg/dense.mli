(** Dense row-major matrices.

    Used for small reference computations: the active-set QP oracle, unit
    tests that compare the sparse kernels against a straightforward dense
    evaluation, and eigenvalue estimation on small instances. The production
    MMSIM path never materializes a dense matrix. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Copies a rectangular array-of-rows. Raises [Invalid_argument] if the rows
    have uneven lengths. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. Raises [Invalid_argument] on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [A x]. *)

val mul_vec_t : t -> Vec.t -> Vec.t
(** [mul_vec_t a x] is [A^T x]. *)

val gram : t -> t
(** [gram a] is [A^T A]. *)

val outer_gram : t -> t
(** [outer_gram a] is [A A^T]. *)

val col : t -> int -> Vec.t

val is_symmetric : ?eps:float -> t -> bool

val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
