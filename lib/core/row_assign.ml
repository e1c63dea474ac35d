open Mclh_circuit

type t = { rows : int array; y_displacement : float }

let assign_cell (design : Design.t) i =
  let cell = design.cells.(i) in
  let y = design.global.Placement.ys.(i) in
  match Chip.nearest_admitting_row design.chip cell y with
  | Some row -> row
  | None ->
    (* no admitting row at all (rail-impossible cell): park on the nearest
       in-range row and let the allocation stage report the cell as
       unplaceable instead of killing the flow here *)
    max 0
      (min
         (design.chip.Chip.num_rows - cell.Cell.height)
         (int_of_float (Float.round y)))

let y_displacement (design : Design.t) rows =
  let row_height = design.chip.Mclh_circuit.Chip.row_height in
  let ys = design.global.Placement.ys in
  let total = ref 0.0 in
  for i = 0 to Array.length rows - 1 do
    total :=
      !total +. (row_height *. Float.abs (float_of_int rows.(i) -. ys.(i)))
  done;
  !total

let assign (design : Design.t) =
  let n = Design.num_cells design in
  let rows = Array.init n (assign_cell design) in
  { rows; y_displacement = y_displacement design rows }
