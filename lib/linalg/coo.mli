(** Coordinate-format (triplet) sparse matrix builder.

    Accumulates [(row, col, value)] entries in any order, with duplicates
    summed, and converts to {!Csr} for fast products. *)

type t

val create : rows:int -> cols:int -> t

val rows : t -> int
val cols : t -> int

val reserve : t -> int -> unit
(** [reserve t n] makes room for [n] triplets in all, so that adding
    that many allocates nothing more; a caller that counts its triplets
    first sizes the arrays exactly, with no slack from doubling. *)

val add : t -> int -> int -> float -> unit
(** [add t i j v] accumulates [v] at position [(i, j)]. Raises
    [Invalid_argument] when the indices are out of bounds. Zero values are
    kept (they disappear on conversion only if they sum to zero and
    [drop_zeros] is requested). *)

val to_csr : ?drop_zeros:bool -> t -> Csr.t
(** Converts to CSR with sorted rows, in time linear in the entries and
    the dimensions. Duplicate entries are merged by summation, left to
    right in the order they were added. With [drop_zeros] (default
    [true]), entries that sum to exactly 0.0 are removed. *)

val of_dense : ?eps:float -> Dense.t -> t
(** Triplets of all entries of magnitude above [eps] (default 0., i.e. all
    nonzero entries). *)
