open Mclh_circuit

(* One tournament tree per (height, bottom rail) class. [front] has one
   leaf per row, padded with [max_int] up to a power of two [size];
   [win.(i)] is the lowest-front leaf under node [i] (root 1, leaf [r] at
   [size + r]).
   Every leaf under a left child precedes every leaf under its sibling, so
   keeping the left winner on a tie keeps the lowest row. *)
type cls = {
  height : int;
  rail : Rail.t option;
  admits : bool array;
  front : int array;
  win : int array;
  mutable unplaced : int;
}

type t = { num_sites : int; cursor : int array; classes : cls array }

let same_class cls (c : Cell.t) =
  cls.height = c.Cell.height && Option.equal Rail.equal cls.rail c.Cell.bottom_rail

let class_of t (c : Cell.t) =
  let rec find k =
    if same_class t.classes.(k) c then t.classes.(k) else find (k + 1)
  in
  find 0

let better cls a b = if cls.front.(b) < cls.front.(a) then b else a

let make_class (chip : Chip.t) (c : Cell.t) =
  let num_rows = chip.Chip.num_rows in
  let size =
    let rec grow s = if s >= num_rows then s else grow (2 * s) in
    grow 1
  in
  let admits = Array.init num_rows (Chip.row_admits chip c) in
  let front =
    Array.init size (fun r -> if r < num_rows && admits.(r) then 0 else max_int)
  in
  let win = Array.make (2 * size) 0 in
  for r = 0 to size - 1 do
    win.(size + r) <- r
  done;
  let cls =
    { height = c.Cell.height; rail = c.Cell.bottom_rail; admits; front; win;
      unplaced = 0 }
  in
  for i = size - 1 downto 1 do
    win.(i) <- better cls win.(2 * i) win.(2 * i + 1)
  done;
  cls

let create (chip : Chip.t) (cells : Cell.t array) =
  let classes = ref [] in
  Array.iter
    (fun c ->
      let cls =
        match List.find_opt (fun cls -> same_class cls c) !classes with
        | Some cls -> cls
        | None ->
          let cls = make_class chip c in
          classes := cls :: !classes;
          cls
      in
      cls.unplaced <- cls.unplaced + 1)
    cells;
  { num_sites = chip.Chip.num_sites;
    cursor = Array.make chip.Chip.num_rows 0;
    classes = Array.of_list (List.rev !classes) }

let lowest t c =
  let cls = class_of t c in
  let r = cls.win.(1) in
  let front = cls.front.(r) in
  if front = max_int || front + c.Cell.width > t.num_sites then -1 else r

let front t ~row ~height =
  let front = ref 0 in
  for k = row to row + height - 1 do
    front := max !front t.cursor.(k)
  done;
  !front

(* recompute the span front of leaf [r] and replay the matches above it *)
let refresh t cls r =
  cls.front.(r) <- front t ~row:r ~height:cls.height;
  let i = ref ((Array.length cls.front + r) / 2) in
  while !i >= 1 do
    cls.win.(!i) <- better cls cls.win.(2 * !i) cls.win.(2 * !i + 1);
    i := !i / 2
  done

let place t (c : Cell.t) ~row ~right =
  let h = c.Cell.height in
  for k = row to row + h - 1 do
    t.cursor.(k) <- right
  done;
  let own = class_of t c in
  own.unplaced <- own.unplaced - 1;
  Array.iter
    (fun cls ->
      if cls.unplaced > 0 then
        (* spans [r .. r + height - 1] that meet rows [row .. row + h - 1] *)
        for r = max 0 (row - cls.height + 1) to row + h - 1 do
          if r < Array.length cls.admits && cls.admits.(r) then refresh t cls r
        done)
    t.classes
