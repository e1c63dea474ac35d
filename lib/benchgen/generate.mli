(** Synthetic benchmark instances.

    The generator reproduces the structural statistics of the paper's suite
    (cell mix and density from Table 1) without the proprietary ISPD-2015
    data: it first packs a *legal* placement — respecting rails, rows, and
    sites by construction — inserting randomized gaps so each row is used
    across its whole extent, then perturbs every cell with Gaussian noise
    plus a pull toward a few random hotspots to obtain a realistic
    overlapping global placement. The packed layout is returned as a
    feasibility witness; legalizers never see it.

    Packing rule: multi-row cells first, then single-row cells, each in a
    shuffled order; every cell goes into the admitting row span with the
    lowest frontier (the largest right edge placed so far over the span),
    the lowest such row on a tie, and the frontier then advances by the
    cell's width plus a random gap. An attempt fails when the lowest
    frontier leaves no room for the cell; three failed attempts widen the
    chip. The lowest-frontier query is answered by a per-(height, rail)
    tournament tree, so an attempt costs O(cells x log rows). With
    blockages or fences the cells instead land at the free spot nearest a
    random target on an occupancy grid.

    Determinism: the stream is seeded from the benchmark name and [seed],
    so the same options always produce the identical instance. *)

type options = {
  seed : int;
  single_width_range : int * int;  (** inclusive site-width range *)
  double_width_range : int * int;  (** halved widths for doubled cells *)
  tall_cell_fraction : float;
      (** fraction of the doubled cells regenerated as triple- or
          quadruple-height cells (0 reproduces the paper's suite, which
          has only single and double heights; nonzero exercises the
          general per-chain machinery) *)
  sites_per_row_ratio : float;  (** chip aspect: sites ~ ratio * rows *)
  noise_x_sigma : float;  (** Gaussian x perturbation, in sites *)
  noise_y_sigma : float;  (** Gaussian y perturbation, in rows *)
  hotspots : int;  (** number of attraction centers *)
  hotspot_strength : float;  (** 0 disables the pull *)
  nets_per_cell : float;  (** expected net count / cell count *)
  single_height_only : bool;
      (** Section 5.3 mode: doubled cells revert to single height at twice
          the halved width, and no rail constraints remain *)
  blockage_fraction : float;
      (** fraction of the chip area covered by fixed rectangular blockages
          (0 disables; the chip is widened so the free capacity still
          matches the target density) *)
  blockage_count : int;  (** number of blockage rectangles when enabled *)
  fence_count : int;
      (** number of exclusive fence regions (0 disables). Each fence is a
          random rectangle; cells are assigned to it up to the fence's
          capacity at the target density, and the reference packing places
          members inside and everyone else outside, so the witness honors
          the fence semantics. *)
}

val default_options : options

type instance = {
  design : Mclh_circuit.Design.t;
  reference : Mclh_circuit.Placement.t;
      (** the legal packing the global placement was perturbed from — a
          feasibility witness, not an optimum *)
}

val generate : ?options:options -> Spec.t -> instance
(** Builds the instance for a (possibly scaled) benchmark spec.
    @raise Invalid_argument if the spec is degenerate (no cells). *)

val generate_named : ?options:options -> ?scale:float -> string -> instance
(** [generate_named name] looks the spec up in {!Spec.all} and scales it
    (default [scale = 1.0]). *)
