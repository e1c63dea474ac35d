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
(** Variables of chain [c], hub first. *)

val apply_ete : t -> Vec.t -> Vec.t
(** [apply_ete t x] is [E^T E x]. *)

val apply_ete_into : t -> dim:int -> Vec.t -> Vec.t -> unit
(** [apply_ete_into t ~dim x dst] writes [E^T E] times the first [nvars]
    entries of [x] into the first [nvars] entries of [dst] without
    allocating (the MMSIM hot path, where [x] and [dst] are whole
    iterates with the constraint entries after the variables). Both must
    have length [dim >= nvars]; entries from [nvars] on are neither read
    nor written. [x] and [dst] must be distinct arrays. *)

val solve_shifted : alpha:float -> coef:float -> t -> Vec.t -> Vec.t
(** [solve_shifted ~alpha ~coef t b] solves [(alpha I + coef E^T E) y = b].
    Requires [alpha > 0] and [coef >= 0]; raises [Invalid_argument]
    otherwise. *)

val solve_shifted_into :
  alpha:float -> coef:float -> t -> dim:int -> Vec.t -> Vec.t -> unit
(** [solve_shifted_into ~alpha ~coef t ~dim b dst] solves for the first
    [nvars] entries of [b] into those of [dst] (the MMSIM hot path). Both
    must have length [dim >= nvars]; entries from [nvars] on are neither
    read nor written. [b] and [dst] may be the same array. *)

val solve_shifted_sparse :
  alpha:float -> coef:float -> t -> (int * float) list -> (int * float) list
(** Solves the shifted system for a sparse right-hand side, returning only
    the (generally few) nonzero result entries: untouched chains contribute
    nothing, touched chains contribute all their variables. Used to form
    the tridiagonal part of the Schur complement in O(m). *)

val mismatch : t -> Vec.t -> float
(** [mismatch t x] is the largest |x_spoke - x_hub| over all chains — the
    subcell mismatch distance the paper's lambda penalty controls. *)

val average_into : t -> Vec.t -> unit
(** Replaces every chain's values by their mean (multi-row cell
    restoration). *)

val e_matrix : t -> Csr.t
(** The explicit [E] matrix (rows ordered chain by chain, spokes in chain
    order); for tests and dense cross-checks. *)

val all_double : t -> bool
(** True when every chain has exactly two variables — the condition under
    which the paper's closed-form Sherman-Morrison inverse
    [(Q + lambda E^T E)^-1 = I - lambda/(2 lambda + 1) E^T E] is exact. *)
