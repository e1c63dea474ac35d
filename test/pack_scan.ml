(* Test-only reference for the generator's row choice: the linear scan
   [Generate.pack] ran before [Frontier]. Every row is tried; the span
   front is the largest cursor over the cell's rows, and the first
   admitting span with a strictly lower front that still fits wins, so
   ties go to the lower row. [Frontier.lowest] must return the same
   (row, front) on every query. *)

open Mclh_circuit

let lowest (chip : Chip.t) (cursor : int array) (c : Cell.t) =
  let h = c.Cell.height and w = c.Cell.width in
  let span_front r =
    let front = ref 0 in
    for k = r to r + h - 1 do
      front := max !front cursor.(k)
    done;
    !front
  in
  let best = ref (-1) and best_front = ref max_int in
  for r = 0 to chip.Chip.num_rows - h do
    if Chip.row_admits chip c r then begin
      let front = span_front r in
      if front < !best_front && front + w <= chip.Chip.num_sites then begin
        best := r;
        best_front := front
      end
    end
  done;
  if !best < 0 then None else Some (!best, !best_front)
