(* The triplet-list COO builder that [Mclh_linalg.Coo] replaced, kept
   verbatim as the oracle of the array-backed one: [to_csr] must give the
   same matrix bit for bit (same entries, same sums, same dropped
   zeros). *)

open Mclh_linalg

type t = {
  nrows : int;
  ncols : int;
  mutable entries : (int * int * float) list;
}

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Coo.create: negative dimension";
  { nrows = rows; ncols = cols; entries = [] }

let add t i j v =
  if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols then
    invalid_arg
      (Printf.sprintf "Coo.add: index (%d, %d) out of %dx%d" i j t.nrows
         t.ncols);
  t.entries <- (i, j, v) :: t.entries

let to_csr ?(drop_zeros = true) t =
  (* bucket triplets per row, then sort each row by column and merge dups *)
  let per_row = Array.make t.nrows [] in
  List.iter (fun (i, j, v) -> per_row.(i) <- (j, v) :: per_row.(i)) t.entries;
  let merged_rows =
    Array.map
      (fun entries ->
        let sorted =
          List.sort (fun (j1, _) (j2, _) -> compare j1 j2) entries
        in
        let rec merge = function
          | (j1, v1) :: (j2, v2) :: rest when j1 = j2 ->
            merge ((j1, v1 +. v2) :: rest)
          | e :: rest -> e :: merge rest
          | [] -> []
        in
        let merged = merge sorted in
        if drop_zeros then List.filter (fun (_, v) -> v <> 0.0) merged
        else merged)
      per_row
  in
  let total = Array.fold_left (fun acc r -> acc + List.length r) 0 merged_rows in
  let row_ptr = Array.make (t.nrows + 1) 0 in
  let col_idx = Array.make total 0 in
  let values = Array.make total 0.0 in
  let pos = ref 0 in
  Array.iteri
    (fun i row ->
      row_ptr.(i) <- !pos;
      List.iter
        (fun (j, v) ->
          col_idx.(!pos) <- j;
          values.(!pos) <- v;
          incr pos)
        row)
    merged_rows;
  row_ptr.(t.nrows) <- !pos;
  Csr.make ~rows:t.nrows ~cols:t.ncols ~row_ptr ~col_idx ~values
