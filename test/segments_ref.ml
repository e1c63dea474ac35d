(* Test-only reference for [Mclh_core.Segments]: the list-based free
   spans and the list-fold [locate] that the flat span arrays replaced,
   kept verbatim. [compute] must give the same spans row by row and
   [Segments.locate] the start of the span [locate] picks (-1 for
   [None]), ties and rows where nothing fits included. *)

open Mclh_circuit

type span = { start : int; stop : int }
type t = { per_row : span list array; any : bool }

let compute (design : Design.t) =
  let chip = design.chip in
  let num_rows = chip.Chip.num_rows and num_sites = chip.Chip.num_sites in
  let blocked : (int * int) list array = Array.make num_rows [] in
  Array.iter
    (fun (b : Blockage.t) ->
      for r = b.Blockage.row to b.Blockage.row + b.Blockage.height - 1 do
        blocked.(r) <- (b.Blockage.x, b.Blockage.x + b.Blockage.width) :: blocked.(r)
      done)
    design.blockages;
  (* monomorphic int comparator: the polymorphic [compare] walks the
     runtime representation of every pair, an order of magnitude slower on
     blockage-heavy rows *)
  let cmp_interval (a1, b1) (a2, b2) =
    if a1 <> a2 then Int.compare a1 a2 else Int.compare b1 b2
  in
  let per_row =
    Array.map
      (fun intervals ->
        let sorted = List.sort cmp_interval intervals in
        (* merge overlapping blocked intervals, then take the complement;
           both passes are tail-recursive with accumulators (no [@] and no
           stack growth proportional to the blockage count) *)
        let rec merge acc = function
          | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
            merge acc ((a1, max b1 b2) :: rest)
          | iv :: rest -> merge (iv :: acc) rest
          | [] -> List.rev acc
        in
        let merged = merge [] sorted in
        let rec free acc cursor = function
          | [] ->
            List.rev
              (if cursor < num_sites then
                 { start = cursor; stop = num_sites } :: acc
               else acc)
          | (a, b) :: rest ->
            let acc =
              if cursor < a then { start = cursor; stop = a } :: acc else acc
            in
            free acc (max cursor b) rest
        in
        free [] 0 merged)
      blocked
  in
  { per_row; any = Array.length design.blockages > 0 }

let row_segments t row = t.per_row.(row)

let locate t ~row ~x ~width =
  let candidates = t.per_row.(row) in
  let distance seg =
    (* distance from the desired x to the nearest feasible left edge *)
    let lo = float_of_int seg.start
    and hi = float_of_int (max seg.start (seg.stop - width)) in
    if x < lo then lo -. x else if x > hi then x -. hi else 0.0
  in
  let fits seg = seg.stop - seg.start >= width in
  let pick pred =
    List.fold_left
      (fun best seg ->
        if not (pred seg) then best
        else
          match best with
          | Some (b, bd) when bd <= distance seg -> Some (b, bd)
          | Some _ | None -> Some (seg, distance seg))
      None candidates
  in
  match pick fits with
  | Some (seg, _) -> Some seg
  | None -> (
    match pick (fun _ -> true) with
    | Some (seg, _) -> Some seg
    | None -> None)

let has_blockages t = t.any
