type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array; (* length nrows + 1 *)
  col_idx : int array; (* length nnz *)
  values : float array; (* length nnz *)
  sorted_rows : bool;
      (* every row's col_idx strictly increasing (implies no duplicate
         entries); Coo.to_csr always produces such matrices *)
}

let detect_sorted_rows ~nrows ~row_ptr ~col_idx =
  let ok = ref true in
  for i = 0 to nrows - 1 do
    for k = row_ptr.(i) to row_ptr.(i + 1) - 2 do
      if col_idx.(k) >= col_idx.(k + 1) then ok := false
    done
  done;
  !ok

let rows t = t.nrows
let cols t = t.ncols
let nnz t = Array.length t.values

let make ~rows ~cols ~row_ptr ~col_idx ~values =
  if rows < 0 || cols < 0 then invalid_arg "Csr.make: negative dimension";
  if Array.length row_ptr <> rows + 1 then
    invalid_arg "Csr.make: row_ptr must have length rows + 1";
  if Array.length col_idx <> Array.length values then
    invalid_arg "Csr.make: col_idx and values length mismatch";
  if row_ptr.(0) <> 0 || row_ptr.(rows) <> Array.length values then
    invalid_arg "Csr.make: row_ptr endpoints invalid";
  for i = 0 to rows - 1 do
    if row_ptr.(i) > row_ptr.(i + 1) then
      invalid_arg "Csr.make: row_ptr not monotone"
  done;
  Array.iter
    (fun j -> if j < 0 || j >= cols then invalid_arg "Csr.make: col_idx bound")
    col_idx;
  { nrows = rows;
    ncols = cols;
    row_ptr;
    col_idx;
    values;
    sorted_rows = detect_sorted_rows ~nrows:rows ~row_ptr ~col_idx }

let empty ~rows ~cols =
  { nrows = rows;
    ncols = cols;
    row_ptr = Array.make (rows + 1) 0;
    col_idx = [||];
    values = [||];
    sorted_rows = true }

let identity n =
  { nrows = n;
    ncols = n;
    row_ptr = Array.init (n + 1) (fun i -> i);
    col_idx = Array.init n (fun i -> i);
    values = Array.make n 1.0;
    sorted_rows = true }

let get t i j =
  if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols then
    invalid_arg "Csr.get: index out of bounds";
  let lo = t.row_ptr.(i) and hi = t.row_ptr.(i + 1) in
  if t.sorted_rows then begin
    (* strictly increasing columns: binary search, at most one hit *)
    let rec search lo hi =
      if lo >= hi then 0.0
      else
        let mid = lo + ((hi - lo) / 2) in
        let c = t.col_idx.(mid) in
        if c = j then t.values.(mid)
        else if c < j then search (mid + 1) hi
        else search lo mid
    in
    search lo hi
  end
  else begin
    (* unsorted rows may carry duplicate entries that sum; scan them all *)
    let acc = ref 0.0 in
    for k = lo to hi - 1 do
      if t.col_idx.(k) = j then acc := !acc +. t.values.(k)
    done;
    !acc
  end

let mul_vec_into t x dst =
  if Array.length x <> t.ncols || Array.length dst <> t.nrows then
    invalid_arg "Csr.mul_vec_into: dimension mismatch";
  for i = 0 to t.nrows - 1 do
    let acc = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    dst.(i) <- !acc
  done

let mul_vec t x =
  let dst = Array.make t.nrows 0.0 in
  mul_vec_into t x dst;
  dst

let mul_vec_t t x =
  if Array.length x <> t.nrows then invalid_arg "Csr.mul_vec_t: dimension mismatch";
  let dst = Array.make t.ncols 0.0 in
  for i = 0 to t.nrows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.col_idx.(k) in
        dst.(j) <- dst.(j) +. (t.values.(k) *. xi)
      done
  done;
  dst

let add_mul_vec t x acc =
  if Array.length x <> t.ncols || Array.length acc <> t.nrows then
    invalid_arg "Csr.add_mul_vec: dimension mismatch";
  for i = 0 to t.nrows - 1 do
    let s = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      s := !s +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    acc.(i) <- acc.(i) +. !s
  done


let transpose t =
  let counts = Array.make (t.ncols + 1) 0 in
  Array.iter (fun j -> counts.(j + 1) <- counts.(j + 1) + 1) t.col_idx;
  for j = 1 to t.ncols do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let row_ptr = Array.copy counts in
  let fill_pos = Array.copy counts in
  let n = nnz t in
  let col_idx = Array.make n 0 and values = Array.make n 0.0 in
  for i = 0 to t.nrows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col_idx.(k) in
      let pos = fill_pos.(j) in
      col_idx.(pos) <- i;
      values.(pos) <- t.values.(k);
      fill_pos.(j) <- pos + 1
    done
  done;
  { nrows = t.ncols;
    ncols = t.nrows;
    row_ptr;
    col_idx;
    values;
    sorted_rows = detect_sorted_rows ~nrows:t.ncols ~row_ptr ~col_idx }

let scale c t = { t with values = Array.map (( *. ) c) t.values }

let row_entries t i =
  if i < 0 || i >= t.nrows then invalid_arg "Csr.row_entries: row out of bounds";
  let acc = ref [] in
  for k = t.row_ptr.(i + 1) - 1 downto t.row_ptr.(i) do
    acc := (t.col_idx.(k), t.values.(k)) :: !acc
  done;
  !acc

let iter_row t i f =
  if i < 0 || i >= t.nrows then invalid_arg "Csr.iter_row: row out of bounds";
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let iter t f =
  for i = 0 to t.nrows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i t.col_idx.(k) t.values.(k)
    done
  done

let to_dense t =
  let d = Dense.create t.nrows t.ncols in
  iter t (fun i j v -> Dense.set d i j (Dense.get d i j +. v));
  d

let frobenius_norm t =
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 t.values)
