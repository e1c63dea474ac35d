type t = { row : int; height : int; x : int; width : int }

let make ~row ~height ~x ~width =
  if height < 1 || width < 1 then
    invalid_arg "Blockage.make: non-positive dimensions";
  if row < 0 || x < 0 then invalid_arg "Blockage.make: negative origin";
  { row; height; x; width }

let inside t (chip : Chip.t) =
  t.row + t.height <= chip.Chip.num_rows && t.x + t.width <= chip.Chip.num_sites

let covers_row t row = t.row <= row && row < t.row + t.height

let overlaps_span t ~row ~height ~x ~width =
  let rows_meet = row < t.row + t.height && t.row < row + height in
  let x_meet =
    x < float_of_int (t.x + t.width) && float_of_int t.x < x +. float_of_int width
  in
  rows_meet && x_meet

let area t = t.height * t.width
