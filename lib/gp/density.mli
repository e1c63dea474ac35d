(** Electrostatic density engine for the global placer (FFTPL style).

    An [m x m] bin grid (m a power of two) over the chip accumulates
    cell area — movable cells from the current fractional placement,
    blockages and pinned cells pre-filled once at construction — and
    turns the density map into a smooth force field by solving the
    Poisson equation [div grad psi = -(rho - mean rho)] spectrally:

    + a 2-D DCT-II diagonalizes the 5-point Laplacian under Neumann
      (reflective) boundaries with eigenvalues
      [lambda_u = 2 (1 - cos (pi u / m))], so the potential is a
      pointwise divide in coefficient space (DC removed);
    + the field [E = -grad psi] is synthesized directly in the sine
      basis ([dst3] along the derivative axis, [idct2] along the other),
      so no finite differencing of the potential is needed.

    Cells sitting in dense (or obstructed) bins see a field pointing
    toward sparse bins; the placer mixes [mu E] into its anchor targets.
    All transforms run on {!Mclh_linalg.Fft} plans owned by the engine —
    the per-round [accumulate]/[solve] cycle allocates nothing.

    The eigenvalues are those of the {e discrete} stencil, so the
    potential satisfies the 5-point Neumann Laplacian exactly (up to
    roundoff) — the property [test_gp.ml] checks. *)

open Mclh_circuit

type t

val create :
  ?grid:int -> ?target:float -> ?fixed:bool array -> Design.t -> t
(** [create design] builds the engine for [design]'s chip.

    [grid] is the bin count per side (power of two; default: the
    smallest power of two at or above [sqrt num_cells], clamped to
    [\[8, 512\]]). [target] is the target utilization per bin (default
    [1.0]). [fixed.(i) = true] marks cell [i] as immovable: its area is
    pre-filled at the [design.global] position, alongside all
    blockages, and {!accumulate} skips it.

    @raise Invalid_argument if [grid] is not a positive power of two or
    [fixed] has the wrong length. *)

val grid : t -> int
val bin_w : t -> float  (** bin width in sites *)

val bin_h : t -> float  (** bin height in rows *)

val total_movable_area : t -> float

val accumulate : t -> Design.t -> Placement.t -> unit
(** Re-bin the movable cells from [pl] (area-weighted over the bins
    each cell overlaps); the fixed pre-fill is untouched. Area outside
    the chip is dropped, so callers should clamp first. *)

val solve : t -> unit
(** Solve the Poisson equation for the current bins and refresh the
    potential and field grids. *)

val field_at : t -> x:float -> y:float -> float * float
(** [(ex, ey)] bilinearly interpolated between bin centers at chip
    coordinates [(x, y)] (sites/rows). Positive [ex] pushes toward
    larger [x]. Valid after {!solve}. *)

val overflow : t -> float
(** {!Mclh_circuit.Density.area_overflow} of the movable area against
    the fixed pre-fill at the engine's target, divided by the total
    movable area — 0 when everything fits at the target density. The
    placer's stopping rule. *)

val max_utilization : t -> float
(** Max over bins of [(movable + fixed) / bin_area]. *)

(** {1 Test access} — row-major [m * m] grids, index [iy * m + ix];
    the arrays are live (not copies). *)

val movable : t -> float array
val fixed_fill : t -> float array
val charge : t -> float array
(** The right-hand side [rho] fed to the last {!solve} (density in
    area per bin-area units, DC {e not} yet removed). *)

val potential : t -> float array
