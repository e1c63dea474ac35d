(** Compressed sparse row matrices.

    The circuit constraint matrices ([B], [E]) and the LCP system matrix
    blocks are stored in this format; products with vectors are O(nnz). *)

type t

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val make :
  rows:int ->
  cols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  t
(** Builds from raw CSR arrays. Validates monotone [row_ptr], bounds of
    [col_idx], and array lengths; raises [Invalid_argument] on violation.
    Column indices within a row need not be sorted (the constructors in
    {!Coo} produce sorted rows). *)

val empty : rows:int -> cols:int -> t

val identity : int -> t

val get : t -> int -> int -> float
(** Lookup; 0.0 when absent. O(log row nnz) binary search when the row's
    column indices are strictly increasing (always true for matrices from
    {!Coo.to_csr}); falls back to an O(row nnz) duplicate-summing scan for
    raw {!make} inputs with unsorted or repeated columns. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec a x] is [A x]. *)

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into a x dst] writes [A x] into [dst] (no allocation). *)

val mul_vec_t : t -> Vec.t -> Vec.t
(** [mul_vec_t a x] is [A^T x]. *)

val add_mul_vec : t -> Vec.t -> Vec.t -> unit
(** [add_mul_vec a x acc] updates [acc <- acc + A x]. *)

val transpose : t -> t

val scale : float -> t -> t

val row_entries : t -> int -> (int * float) list
(** Entries of row [i] as [(col, value)] pairs, in storage order. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit

val iter : t -> (int -> int -> float -> unit) -> unit
(** Iterates all stored entries in row-major order. *)

val to_dense : t -> Dense.t

val frobenius_norm : t -> float
