type t = {
  total_manhattan : float;
  total_euclidean : float;
  total_squared : float;
  max_manhattan : float;
  moved_cells : int;
}

let displacement ?(row_height = 1.0) ~(before : Placement.t)
    (after : Placement.t) =
  let n = Placement.num_cells before in
  if Placement.num_cells after <> n then
    invalid_arg "Metrics.displacement: placement size mismatch";
  let total_manhattan = ref 0.0
  and total_euclidean = ref 0.0
  and total_squared = ref 0.0
  and max_manhattan = ref 0.0
  and moved = ref 0 in
  for i = 0 to n - 1 do
    let dx = after.xs.(i) -. before.xs.(i)
    and dy = row_height *. (after.ys.(i) -. before.ys.(i)) in
    let manhattan = Float.abs dx +. Float.abs dy in
    let squared = (dx *. dx) +. (dy *. dy) in
    total_manhattan := !total_manhattan +. manhattan;
    total_euclidean := !total_euclidean +. sqrt squared;
    total_squared := !total_squared +. squared;
    if manhattan > !max_manhattan then max_manhattan := manhattan;
    if manhattan > 1e-9 then incr moved
  done;
  { total_manhattan = !total_manhattan;
    total_euclidean = !total_euclidean;
    total_squared = !total_squared;
    max_manhattan = !max_manhattan;
    moved_cells = !moved }

let avg_manhattan m n =
  if n = 0 then 0.0 else m.total_manhattan /. float_of_int n
