type t = float array

let create n x = Array.make n x
let zeros n = Array.make n 0.0
let init = Array.init
let copy = Array.copy
let dim = Array.length

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length x) (Array.length y))

let blit ~src ~dst =
  check_dims "blit" src dst;
  Array.blit src 0 dst 0 (Array.length src)

let fill x v = Array.fill x 0 (Array.length x) v

let add x y =
  check_dims "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_dims "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let scale a x = Array.map (fun v -> a *. v) x

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check_dims "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let abs_into x dst =
  check_dims "abs_into" x dst;
  for i = 0 to Array.length x - 1 do
    dst.(i) <- Float.abs x.(i)
  done

let pos_part x = Array.map (fun v -> Float.max v 0.0) x
let neg_part x = Array.map (fun v -> Float.max (-.v) 0.0) x
let norm2 x = sqrt (dot x x)

let norm_inf x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs x.(i) in
    if a > !acc then acc := a
  done;
  !acc

let dist_inf x y =
  check_dims "dist_inf" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let a = Float.abs (x.(i) -. y.(i)) in
    if a > !acc then acc := a
  done;
  !acc

let extremum name cmp x =
  if Array.length x = 0 then invalid_arg ("Vec." ^ name ^ ": empty vector");
  let acc = ref x.(0) in
  for i = 1 to Array.length x - 1 do
    if cmp x.(i) !acc then acc := x.(i)
  done;
  !acc

let min_elt x = extremum "min_elt" ( < ) x
let max_elt x = extremum "max_elt" ( > ) x
let map = Array.map
let mapi = Array.mapi
let fold_left = Array.fold_left
let sum x = fold_left ( +. ) 0.0 x
let of_list = Array.of_list

let equal ?(eps = 1e-12) x y =
  Array.length x = Array.length y
  &&
  let rec go i =
    i >= Array.length x
    || (Float.abs (x.(i) -. y.(i)) <= eps && go (i + 1))
  in
  go 0

let pp ppf x =
  Format.fprintf ppf "@[<hov 1>[";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%g" v)
    x;
  Format.fprintf ppf "]@]"
