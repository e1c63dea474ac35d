open Mclh_circuit

type row_cell = { target : float; width : float }

(* One Abacus cluster covering a contiguous run of cells. [q]/[e] give the
   unclamped optimal origin; [w] is the packed width. *)
type cluster = {
  mutable q : float;
  mutable e : float;
  mutable w : float;
  mutable first : int;
  mutable last : int;
}

let optimal_x ~xmin ~xmax c = Float.min (Float.max (c.q /. c.e) xmin) (xmax -. c.w)

let place_row ?(xmin = 0.0) ?(xmax = infinity) cells =
  let n = Array.length cells in
  Array.iter
    (fun rc ->
      if rc.width <= 0.0 then invalid_arg "Abacus.place_row: nonpositive width")
    cells;
  let total_width =
    Array.fold_left (fun acc rc -> acc +. rc.width) 0.0 cells
  in
  if total_width > xmax -. xmin +. 1e-9 then
    invalid_arg "Abacus.place_row: cells do not fit between the boundaries";
  let stack = ref [] in
  for i = 0 to n - 1 do
    let rc = cells.(i) in
    let c = { q = rc.target; e = 1.0; w = rc.width; first = i; last = i } in
    (* collapse: merge into the predecessor while they overlap *)
    let rec settle c =
      match !stack with
      | pred :: rest
        when optimal_x ~xmin ~xmax pred +. pred.w
             > optimal_x ~xmin ~xmax c +. 1e-12 ->
        (* members of c shift right by pred.w relative to pred's origin *)
        pred.q <- pred.q +. c.q -. (c.e *. pred.w);
        pred.e <- pred.e +. c.e;
        pred.w <- pred.w +. c.w;
        pred.last <- c.last;
        stack := rest;
        settle pred
      | _ -> stack := c :: !stack
    in
    settle c
  done;
  let xs = Array.make n 0.0 in
  List.iter
    (fun c ->
      let x = optimal_x ~xmin ~xmax c in
      let cursor = ref x in
      for i = c.first to c.last do
        xs.(i) <- !cursor;
        cursor := !cursor +. cells.(i).width
      done)
    !stack;
  xs

let place_row_cost ?xmin ?xmax cells =
  let xs = place_row ?xmin ?xmax cells in
  let acc = ref 0.0 in
  Array.iteri
    (fun i rc ->
      let d = xs.(i) -. rc.target in
      acc := !acc +. (d *. d))
    cells;
  !acc

let require_single_height (design : Design.t) fn =
  Array.iter
    (fun (c : Cell.t) ->
      if c.Cell.height <> 1 then
        invalid_arg (fn ^ ": design has a multi-row cell"))
    design.cells;
  if Array.length design.blockages > 0 then
    invalid_arg (fn ^ ": blockages are not supported by this path")

(* PlaceRow over every assigned row of a single-height design, [place]
   mapping a row's cells in order to their positions *)
let fixed_rows fn place (design : Design.t) (assignment : Row_assign.t) =
  require_single_height design fn;
  let order = Order.per_row design ~rows:assignment.Row_assign.rows in
  let xs = Array.make (Design.num_cells design) 0.0 in
  Array.iter
    (fun ids ->
      let row =
        place
          (Array.map
             (fun i ->
               { target = design.global.Placement.xs.(i);
                 width = float_of_int design.cells.(i).Cell.width })
             ids)
      in
      Array.iteri (fun idx i -> xs.(i) <- row.(idx)) ids)
    order;
  let ys = Array.map float_of_int assignment.Row_assign.rows in
  Placement.make ~xs ~ys

let legalize_fixed_rows =
  fixed_rows "Abacus.legalize_fixed_rows" (fun cells -> place_row cells)

let legalize_fixed_rows_incremental =
  fixed_rows "Abacus.legalize_fixed_rows_incremental" (fun cells ->
      (* one PlaceRow call per insertion, as the Abacus driver does *)
      for k = 1 to Array.length cells - 1 do
        ignore (place_row (Array.sub cells 0 k))
      done;
      place_row cells)
