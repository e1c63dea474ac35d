(** Displacement metrics between two placements of the same design.

    The paper's "Total Disp. (sites)" column is the total Manhattan
    displacement measured in site widths; the MMSIM objective itself is the
    quadratic displacement, also reported here. *)

type t = {
  total_manhattan : float;  (** sum over cells of [|dx| + |dy|] *)
  total_euclidean : float;  (** sum of [sqrt (dx^2 + dy^2)] *)
  total_squared : float;  (** sum of [dx^2 + dy^2] — the QP objective x2 *)
  max_manhattan : float;
  moved_cells : int;  (** cells displaced by more than 1e-9 *)
}

val displacement :
  ?row_height:float -> before:Placement.t -> Placement.t -> t
(** [displacement ~before after] measures movement from [before] to
    [after]. [row_height] (default 1.0) converts y distances (rows) into
    site widths so both axes share a unit; pass the chip's [row_height]
    for physical numbers. *)

val avg_manhattan : t -> int -> float
(** [avg_manhattan m n] with [n] the cell count; 0 for [n = 0]. *)
