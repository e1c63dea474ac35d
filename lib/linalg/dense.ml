type t = { nrows : int; ncols : int; data : float array }

let create nrows ncols = { nrows; ncols; data = Array.make (nrows * ncols) 0.0 }

let init nrows ncols f =
  let data = Array.make (nrows * ncols) 0.0 in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      data.((i * ncols) + j) <- f i j
    done
  done;
  { nrows; ncols; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays rows_arr =
  let nrows = Array.length rows_arr in
  if nrows = 0 then { nrows = 0; ncols = 0; data = [||] }
  else begin
    let ncols = Array.length rows_arr.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> ncols then
          invalid_arg "Dense.of_arrays: ragged rows")
      rows_arr;
    init nrows ncols (fun i j -> rows_arr.(i).(j))
  end

let rows m = m.nrows
let cols m = m.ncols
let get m i j = m.data.((i * m.ncols) + j)
let set m i j v = m.data.((i * m.ncols) + j) <- v

let copy m = { m with data = Array.copy m.data }
let transpose m = init m.ncols m.nrows (fun i j -> get m j i)

let check_same name a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then
    invalid_arg ("Dense." ^ name ^ ": shape mismatch")

let add a b =
  check_same "add" a b;
  { a with data = Array.mapi (fun i v -> v +. b.data.(i)) a.data }

let sub a b =
  check_same "sub" a b;
  { a with data = Array.mapi (fun i v -> v -. b.data.(i)) a.data }

let scale c a = { a with data = Array.map (fun v -> c *. v) a.data }

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Dense.mul: inner dimension mismatch";
  init a.nrows b.ncols (fun i j ->
      let acc = ref 0.0 in
      for k = 0 to a.ncols - 1 do
        acc := !acc +. (get a i k *. get b k j)
      done;
      !acc)

let mul_vec a x =
  if a.ncols <> Array.length x then invalid_arg "Dense.mul_vec: dimension";
  Array.init a.nrows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.ncols - 1 do
        acc := !acc +. (get a i j *. x.(j))
      done;
      !acc)

let mul_vec_t a x =
  if a.nrows <> Array.length x then invalid_arg "Dense.mul_vec_t: dimension";
  Array.init a.ncols (fun j ->
      let acc = ref 0.0 in
      for i = 0 to a.nrows - 1 do
        acc := !acc +. (get a i j *. x.(i))
      done;
      !acc)

let gram a = mul (transpose a) a
let outer_gram a = mul a (transpose a)
let col m j = Array.init m.nrows (fun i -> get m i j)

let is_symmetric ?(eps = 1e-12) m =
  m.nrows = m.ncols
  &&
  let ok = ref true in
  for i = 0 to m.nrows - 1 do
    for j = i + 1 to m.ncols - 1 do
      if Float.abs (get m i j -. get m j i) > eps then ok := false
    done
  done;
  !ok

let equal ?(eps = 1e-12) a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  &&
  let rec go i =
    i >= Array.length a.data
    || (Float.abs (a.data.(i) -. b.data.(i)) <= eps && go (i + 1))
  in
  go 0

let pp ppf m =
  Format.fprintf ppf "@[<v 0>";
  for i = 0 to m.nrows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "@[<hov 1>[";
    for j = 0 to m.ncols - 1 do
      if j > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%g" (get m i j)
    done;
    Format.fprintf ppf "]@]"
  done;
  Format.fprintf ppf "@]"
