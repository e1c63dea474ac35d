(** The x-direction optimization model (Problems (5), (6), (12), (13)).

    After row assignment, every cell is split into one subcell variable per
    spanned row. Variables are numbered row by row: the ids run through
    the ordering groups ([row_vars]) in order, so each group is an
    ascending run of consecutive ids and every ordering constraint
    couples [v] and [v + 1]. The operator products of the solver then
    stream through memory instead of gathering from random addresses,
    and the numbering does not depend on how the input numbers its cells
    (except that cells of one row with equal global x are ordered by cell
    id). The model carries:

    - the ordering constraints [B x >= b] — one row per adjacent subcell
      pair in each chip row, two nonzeros (-1, +1) per row, ordered row by
      row and left to right so that consecutive constraints share
      variables and the Schur complement is nearly tridiagonal;
    - the subcell-equality chains (the [E] matrix of Problem (12)) in the
      {!Mclh_linalg.Blocks} star representation;
    - the linear term [p] with [p_v = -x'_cell(v)].

    Propositions 1-2 of the paper (B of full row rank, [Q + lambda E^T E]
    SPD) hold by this construction and are asserted in the test suite. *)

open Mclh_linalg
open Mclh_circuit

type t = {
  design : Design.t;
  assignment : Row_assign.t;
  nvars : int;  (** total number of subcell variables *)
  first_var : int array;
      (** the hub variable of each cell: its subcell in its bottom row.
          A multi-row cell's other subcells are not adjacent to it; its
          chain in [blocks] lists them all, hub first. *)
  var_cell : int array;  (** owning cell of each variable *)
  var_row : int array;  (** chip row of each variable *)
  row_vars : int array array;
      (** ordering groups: one per row *segment* (one per row when the
          design has no blockages), variables in global-x order; in
          row order on a {!build} model, and together they number
          [0 .. nvars - 1] consecutively *)
  b_mat : Csr.t Lazy.t;
      (** m x nvars ordering-constraint matrix, materialized on first
          force (prefer the {!b_mat} accessor). The decomposed solve path
          never forces the global matrix: component discovery and shard
          extraction work from [row_vars]/[blocks] alone, and each shard
          builds only its own sub-CSR. *)
  b_rhs : Vec.t;
      (** required separation of each adjacent pair: the left cell's width
          plus the shift difference when blockage segments shift the
          variables *)
  p : Vec.t;  (** linear term, length nvars: [-(x' - shift)] *)
  shift : Vec.t;
      (** per-variable coordinate shift: the segment left wall the
          variable is measured from ([x = u + shift]); all zero without
          blockages *)
  blocks : Blocks.t;
      (** subcell-equality chains: one per multi-row cell, in cell
          order, each listing the cell's subcells from the bottom row up *)
  d_split : bool array;
      (** empty, or length [m - 1]: [d_split.(i)] drops the coupling
          between constraints [i] and [i + 1] from the Schur tridiagonal
          [D] ({!Schur.tridiag}). {!Decompose.extract} sets it wherever
          two consecutive shard constraints are not consecutive in the
          parent model, so a shard's [D] is the parent's [D] restricted to
          the shard and the decomposed MMSIM iterates the monolithic map,
          component by component. Empty on a {!build} model. *)
}

val build : ?num_domains:int -> Design.t -> Row_assign.t -> t
(** Streaming struct-of-arrays construction: every model field is filled
    in linear passes over preallocated arrays (counting-sort row buckets,
    in-place range sorts, direct CSR emission) with no intermediate
    lists. With [num_domains > 1] the per-cell segment location and the
    per-row sorts fan out over the shared pool; all parallel writes are
    disjoint, so the result is bit-identical to the sequential build. *)

val b_mat : t -> Csr.t
(** Force and return the global ordering-constraint matrix. *)

val csr_of_groups : nvars:int -> m:int -> int array array -> Csr.t
(** [csr_of_groups ~nvars ~m groups] is the [m x nvars] ordering-
    constraint matrix of [groups] (each an ascending run of consecutive
    variable ids, [m] adjacent pairs in all): one [(-1, +1)] row per
    adjacent pair, group by group, already in sorted CSR layout. The
    global B of a model and the B of a {!Decompose} sub-model are both
    this. *)

val num_constraints : t -> int

val lcp_rhs : t -> Vec.t
(** The KKT LCP right-hand side [q = (p; -b)], length [nvars + m]. *)

val to_qp : t -> lambda:float -> Mclh_qp.Qp.t
(** Explicit Problem (13): [Q = I + lambda E^T E] materialized as a sparse
    matrix. For oracle comparisons on small instances. *)

val apply_q_tilde : t -> lambda:float -> Vec.t -> Vec.t
(** [(I + lambda E^T E) x] without materializing anything. *)

val packed_start : t -> Vec.t
(** A point satisfying [B u >= b] and [u >= 0] (cumulative packing per
    ordering group; subcells of a multi-row cell may disagree, which
    Problem (13) permits). Used to start the active-set oracle. *)

val cell_positions : t -> Vec.t -> Vec.t
(** Per-cell x from a per-variable vector by averaging each cell's
    subcells (multi-row restoration), summed from the bottom row up. *)

val subcell_mismatch : t -> Vec.t -> float
(** Largest subcell disagreement (see {!Mclh_linalg.Blocks.mismatch}). *)

val placement_of : t -> Vec.t -> Placement.t
(** Placement with x = averaged subcell positions plus the segment shift,
    and y = assigned rows. *)
