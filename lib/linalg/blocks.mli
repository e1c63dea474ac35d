(** Chain-partitioned arrowhead systems.

    When a multi-row-height cell is split into [d] single-row subcells
    (variables), the equality coupling [E x = 0] is written in star form:
    one row [x_spoke - x_hub = 0] per non-hub subcell. The induced matrix
    [E^T E] is then block diagonal with one small arrowhead block per cell
    chain, and systems of the form [(alpha I + coef E^T E) y = b] decompose
    into independent O(d) closed-form solves. This module owns that chain
    partition and the associated kernels; it is the reason the MMSIM
    top-block solve costs O(n) per iteration regardless of cell heights. *)

type t

val make : nvars:int -> int array list -> t
(** [make ~nvars chains] builds the partition. Each chain is an array of
    variable indices; index 0 is the hub. Chains of length < 2 are ignored.
    @raise Invalid_argument if an index is out of range or appears in two
    chains. *)

val of_array : nvars:int -> int array array -> t
(** {!make} from a chains array, taking ownership of it when no chain is
    degenerate (no list intermediates — the constructor the streaming
    model build uses). Same validation and semantics as {!make}. *)

val nvars : t -> int

val num_chains : t -> int
(** Number of chains of length >= 2. *)

val num_constraints : t -> int
(** Total number of rows of [E]: sum over chains of (length - 1). *)

val chain_vars : t -> int -> int array
(** Variables of chain [c], hub first (a copy). *)

val chain_length : t -> int -> int

val chain_var : t -> int -> int -> int
(** [chain_var t c k] is the [k]-th variable of chain [c] (the hub for
    [k = 0]), without copying the chain. *)

val chain_of_var : t -> int -> int
(** The chain holding variable [v], -1 for a variable in none. *)

val apply_ete : t -> Vec.t -> Vec.t
(** [apply_ete t x] is [E^T E x], chain by chain: the reference that
    {!apply_ete_part_into} matches bit for bit. *)

val solve_shifted : alpha:float -> coef:float -> t -> Vec.t -> Vec.t
(** [solve_shifted ~alpha ~coef t b] solves [(alpha I + coef E^T E) y = b].
    Requires [alpha > 0] and [coef >= 0]; raises [Invalid_argument]
    otherwise. *)

val solve_pair_into :
  alpha:float -> coef:float -> t -> l:int -> j:int -> Vec.t -> unit
(** [solve_pair_into ~alpha ~coef t ~l ~j y] writes the solution of
    [(alpha I + coef E^T E) y = e_j - e_l] ([l <> j]) into [y] (length
    [nvars]) where it can be nonzero: on the chains holding [l] and [j],
    one arrowhead solve each with {!solve_shifted}'s arithmetic, and
    [-1 / alpha] or [1 / alpha] at a chain-free [l] or [j]. Every other
    entry is left as it was, so on a zero [y] the result is the whole
    solution. Allocation-free, O(length of those chains): the column of
    one constraint of the Schur complement's tridiagonal part. *)

val clear_pair : t -> l:int -> j:int -> Vec.t -> unit
(** [clear_pair t ~l ~j y] zeroes the entries {!solve_pair_into} wrote
    for [(l, j)], returning [y] to zero for the next pair. *)

(** {2 The chains split by variable range}

    The MMSIM operators of a large model run per range of variables,
    concurrently. A {!split} files every chain under the range its hub
    lies in and every chain-free variable under its own, so the kernels
    below, run on disjoint parts, write disjoint entries and together
    give the whole-model kernels' bits. *)

type split

val split : t -> int array -> split
(** [split t cuts] with [cuts] ascending from [0] to [nvars]: part [p]
    covers the variables [cuts.(p) .. cuts.(p + 1) - 1]. O(nvars).
    @raise Invalid_argument on other cuts. *)

val apply_ete_part_into : t -> split -> int -> dim:int -> Vec.t -> Vec.t -> unit
(** [apply_ete_part_into t s p ~dim x dst] writes the entries of part [p]
    of {!apply_ete}'s result for the first [nvars] entries of [x], each
    with its arithmetic (a hub reads its spokes wherever they lie), into
    [dst], and nothing else: the MMSIM hot path, allocation-free, where
    [x] and [dst] are whole iterates of length [dim >= nvars] with the
    constraint entries after the variables. [x] and [dst] must be
    distinct arrays. *)

val solve_shifted_part_into :
  alpha:float -> coef:float -> t -> split -> int -> dim:int -> Vec.t ->
  Vec.t -> unit
(** [solve_shifted_part_into ~alpha ~coef t s p ~dim b dst] is
    {!solve_shifted} for the chain-free variables of part [p] and the
    chains whose hub lies in it, spokes included wherever they lie,
    reading the first [nvars] entries of [b] and writing those of [dst]
    (both of length [dim >= nvars]; [b] and [dst] may be the same array).
    Parts write disjoint entries, so they may run concurrently; together
    they give {!solve_shifted}'s bits. Allocation-free. *)

val mismatch : t -> Vec.t -> float
(** [mismatch t x] is the largest |x_spoke - x_hub| over all chains — the
    subcell mismatch distance the paper's lambda penalty controls. *)

val average_into : t -> Vec.t -> unit
(** Replaces every chain's values by their mean (multi-row cell
    restoration). *)

val e_matrix : t -> Csr.t
(** The explicit [E] matrix (rows ordered chain by chain, spokes in chain
    order); for tests and dense cross-checks. *)
