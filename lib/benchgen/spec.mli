(** The benchmark suite of the paper's Table 1.

    Twenty designs derived from the ISPD-2015 detailed-routing-driven
    placement contest, as modified by the authors of the DAC'16 legalizer:
    fence regions dropped, 10% of the cells doubled in height and halved in
    width. Each entry records the published statistics — single-height cell
    count, double-height cell count, placement density and global-placement
    HPWL — which the synthetic generator reproduces at a chosen scale. *)

type t = {
  name : string;
  singles : int;  (** "#S. Cell" of Table 1 *)
  doubles : int;  (** "#D. Cell" of Table 1 *)
  density : float;  (** "Density" of Table 1 *)
  gp_hpwl_m : float;  (** "GP HPWL (m)" of Table 2 *)
}

val all : t list
(** The 20 benchmarks in Table 1 order (des_perf_1 .. superblue19). *)

val find : string -> t
(** Lookup by name. @raise Not_found if unknown. *)

val names : string list

val scaled : float -> t -> t
(** [scaled factor spec] multiplies both cell counts by [factor] (at least
    one single cell; doubles may scale to zero only if the original count
    was zero). Density and HPWL are unchanged — density is a ratio and the
    generator sizes the chip from it.
    @raise Invalid_argument unless [factor] is positive and finite. *)
