(** Tridiagonal systems.

    The MMSIM bottom-block solve works on [(1/theta) D + I] where
    [D = tridiag(B Q~^-1 B^T)] — a symmetric tridiagonal matrix. The Thomas
    algorithm solves it in O(n); a partial-pivoting variant is provided for
    matrices that are not diagonally dominant. *)

type t = {
  sub : float array;  (** subdiagonal, length n-1 (empty when n <= 1) *)
  diag : float array;  (** main diagonal, length n *)
  sup : float array;  (** superdiagonal, length n-1 *)
}

val make : sub:float array -> diag:float array -> sup:float array -> t
(** Validates the band lengths. Raises [Invalid_argument] on mismatch. *)

val dim : t -> int

val identity : int -> t

val of_symmetric : diag:float array -> off:float array -> t
(** [of_symmetric ~diag ~off] builds the symmetric tridiagonal matrix with
    the given main diagonal and off-diagonal. *)

val add_scaled_identity : t -> float -> t
(** [add_scaled_identity t c] is [t + c I]. *)

val scale : float -> t -> t

val mul_vec : t -> Vec.t -> Vec.t

val to_dense : t -> Dense.t

exception Singular of int

val solve : t -> Vec.t -> Vec.t
(** Thomas algorithm (no pivoting). Fast path for diagonally dominant or
    positive definite systems.
    @raise Singular when a pivot underflows. *)

type factor = private {
  f_sub : float array;  (** the matrix's subdiagonal *)
  f_cprime : float array;  (** Thomas [c'] coefficients *)
  f_denom : float array;  (** forward-sweep pivots *)
}
(** Precomputed Thomas sweep coefficients for a fixed matrix, so that
    repeated solves skip the pivot recurrence: the forward sweep
    [y_i = (b_i - f_sub_(i-1) y_(i-1)) / f_denom_i] (without the [f_sub]
    term at [i = 0]), then [x_i = y_i - f_cprime_i x_(i+1)]. The caller
    runs the sweeps, fusing its own right-hand side into them. *)

val prefactor : t -> factor
(** @raise Singular when a pivot underflows. *)

val solve_pivoting : t -> Vec.t -> Vec.t
(** Gaussian elimination with partial pivoting restricted to the band
    (fill-in of one extra superdiagonal). Slightly slower, unconditionally
    stable for nonsingular systems.
    @raise Singular when the matrix is numerically singular. *)

val is_diagonally_dominant : t -> bool
(** Weak row diagonal dominance — a sufficient condition for the plain
    Thomas algorithm to be stable. *)
