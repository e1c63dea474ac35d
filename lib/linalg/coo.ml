(* the triplets in three growable arrays, the first [len] slots in use *)
type t = {
  nrows : int;
  ncols : int;
  mutable len : int;
  mutable ti : int array;
  mutable tj : int array;
  mutable tv : float array;
}

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Coo.create: negative dimension";
  { nrows = rows; ncols = cols; len = 0; ti = [||]; tj = [||]; tv = [||] }

let rows t = t.nrows
let cols t = t.ncols

(* move the triplets into arrays of [cap] slots *)
let resize t cap =
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.ti <- grow t.ti 0;
  t.tj <- grow t.tj 0;
  t.tv <- grow t.tv 0.0

let reserve t cap = if cap > Array.length t.ti then resize t cap

let add t i j v =
  if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols then
    invalid_arg
      (Printf.sprintf "Coo.add: index (%d, %d) out of %dx%d" i j t.nrows
         t.ncols);
  if t.len = Array.length t.ti then resize t (max 16 (2 * t.len));
  t.ti.(t.len) <- i;
  t.tj.(t.len) <- j;
  t.tv.(t.len) <- v;
  t.len <- t.len + 1

(* the triplet ids [src] reordered stably by [key.(id)], a value in
   0..k-1 *)
let counting_sort k key src =
  let next = Array.make (k + 1) 0 in
  Array.iter (fun e -> next.(key.(e) + 1) <- next.(key.(e) + 1) + 1) src;
  for c = 1 to k do
    next.(c) <- next.(c) + next.(c - 1)
  done;
  let dst = Array.make (Array.length src) 0 in
  Array.iter
    (fun e ->
      let c = key.(e) in
      dst.(next.(c)) <- e;
      next.(c) <- next.(c) + 1)
    src;
  dst

let to_csr ?(drop_zeros = true) t =
  (* two stable counting sorts, by column and then by row, group the
     triplets by (row, column) in insertion order; each group is summed
     left to right *)
  let m = t.len in
  let order =
    counting_sort t.nrows t.ti (counting_sort t.ncols t.tj (Array.init m Fun.id))
  in
  let row_ptr = Array.make (t.nrows + 1) 0 in
  let col_idx = Array.make m 0 and values = Array.make m 0.0 in
  let nnz = ref 0 and s = ref 0 in
  while !s < m do
    let e = order.(!s) in
    let i = t.ti.(e) and j = t.tj.(e) in
    let v = ref t.tv.(e) in
    incr s;
    while !s < m && t.ti.(order.(!s)) = i && t.tj.(order.(!s)) = j do
      v := !v +. t.tv.(order.(!s));
      incr s
    done;
    if (not drop_zeros) || !v <> 0.0 then begin
      col_idx.(!nnz) <- j;
      values.(!nnz) <- !v;
      incr nnz;
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    end
  done;
  for i = 1 to t.nrows do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  Csr.make ~rows:t.nrows ~cols:t.ncols ~row_ptr
    ~col_idx:(Array.sub col_idx 0 !nnz) ~values:(Array.sub values 0 !nnz)

let of_dense ?(eps = 0.0) d =
  let t = create ~rows:(Dense.rows d) ~cols:(Dense.cols d) in
  for i = 0 to Dense.rows d - 1 do
    for j = 0 to Dense.cols d - 1 do
      let v = Dense.get d i j in
      if Float.abs v > eps || (eps = 0.0 && v <> 0.0) then add t i j v
    done
  done;
  t
