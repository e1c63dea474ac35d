type t = {
  num_rows : int;
  num_sites : int;
  base_rail : Rail.t;
  row_height : float;
}

let make ?(base_rail = Rail.Vss) ?(row_height = 8.0) ~num_rows ~num_sites () =
  if num_rows < 1 then invalid_arg "Chip.make: num_rows < 1";
  if num_sites < 1 then invalid_arg "Chip.make: num_sites < 1";
  if row_height <= 0.0 then invalid_arg "Chip.make: row_height <= 0";
  { num_rows; num_sites; base_rail; row_height }

let bottom_rail t row =
  if row < 0 || row >= t.num_rows then
    invalid_arg (Printf.sprintf "Chip.bottom_rail: row %d out of range" row);
  if row mod 2 = 0 then t.base_rail else Rail.opposite t.base_rail

let row_in_range t ~row ~height = row >= 0 && row + height <= t.num_rows

let row_admits t (cell : Cell.t) row =
  row_in_range t ~row ~height:cell.height
  &&
  match cell.bottom_rail with
  | None -> true
  | Some rail -> Rail.equal (bottom_rail t row) rail

let nearest_admitting_row t (cell : Cell.t) y =
  (* candidate rows around the rounded target; rail parity means the answer
     is within two rows of the clamped rounding for any admissible chip *)
  let clamp r = max 0 (min (t.num_rows - cell.height) r) in
  let target = clamp (int_of_float (Float.round y)) in
  let best = ref None in
  let consider row =
    if row_admits t cell row then begin
      let dist = Float.abs (float_of_int row -. y) in
      match !best with
      | Some (_, best_dist) when best_dist <= dist -> ()
      | Some _ | None -> best := Some (row, dist)
    end
  in
  (* scan outward: with alternating rails an admitting row, if any exists,
     appears within 2 steps of any position, but clamping at the borders can
     push the nearest admitting row further, so widen until exhausted. A row
     at ring [radius] is at least [radius - delta] from y, so once the
     incumbent beats that bound no farther row can win. *)
  let delta = Float.abs (float_of_int target -. y) in
  let max_radius = t.num_rows in
  let rec scan radius =
    if radius > max_radius then ()
    else begin
      consider (target - radius);
      if radius > 0 then consider (target + radius);
      match !best with
      | Some (_, best_dist) when best_dist <= float_of_int radius -. delta -> ()
      | Some _ | None -> scan (radius + 1)
    end
  in
  scan 0;
  Option.map fst !best

let capacity t = t.num_rows * t.num_sites
