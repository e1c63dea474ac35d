type t = { sub : float array; diag : float array; sup : float array }

exception Singular of int

let make ~sub ~diag ~sup =
  let n = Array.length diag in
  let expect = if n = 0 then 0 else n - 1 in
  if Array.length sub <> expect || Array.length sup <> expect then
    invalid_arg "Tridiag.make: band length mismatch";
  { sub; diag; sup }

let dim t = Array.length t.diag

let identity n =
  { sub = Array.make (max 0 (n - 1)) 0.0;
    diag = Array.make n 1.0;
    sup = Array.make (max 0 (n - 1)) 0.0 }

let of_symmetric ~diag ~off = make ~sub:(Array.copy off) ~diag ~sup:off

(* plain loops: a float closure under [Array.map] boxes every entry *)
let add_scaled_identity t c =
  let diag = Array.copy t.diag in
  for i = 0 to Array.length diag - 1 do
    diag.(i) <- diag.(i) +. c
  done;
  { t with diag }

let scale c t =
  let scaled band =
    let out = Array.copy band in
    for i = 0 to Array.length out - 1 do
      out.(i) <- c *. out.(i)
    done;
    out
  in
  { sub = scaled t.sub; diag = scaled t.diag; sup = scaled t.sup }

let mul_vec t x =
  let n = dim t in
  if Array.length x <> n then invalid_arg "Tridiag.mul_vec: dimension";
  let dst = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let acc = ref (t.diag.(i) *. x.(i)) in
    if i > 0 then acc := !acc +. (t.sub.(i - 1) *. x.(i - 1));
    if i < n - 1 then acc := !acc +. (t.sup.(i) *. x.(i + 1));
    dst.(i) <- !acc
  done;
  dst

let to_dense t =
  let n = dim t in
  Dense.init n n (fun i j ->
      if i = j then t.diag.(i)
      else if j = i + 1 then t.sup.(i)
      else if j = i - 1 then t.sub.(j)
      else 0.0)

let solve t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Tridiag.solve: dimension";
  if n = 0 then [||]
  else begin
    (* forward sweep: c' and d' of the Thomas recurrence *)
    let c' = Array.make n 0.0 and d' = Array.make n 0.0 in
    if Float.abs t.diag.(0) < 1e-300 then raise (Singular 0);
    c'.(0) <- (if n > 1 then t.sup.(0) /. t.diag.(0) else 0.0);
    d'.(0) <- b.(0) /. t.diag.(0);
    for i = 1 to n - 1 do
      let denom = t.diag.(i) -. (t.sub.(i - 1) *. c'.(i - 1)) in
      if Float.abs denom < 1e-300 then raise (Singular i);
      if i < n - 1 then c'.(i) <- t.sup.(i) /. denom;
      d'.(i) <- (b.(i) -. (t.sub.(i - 1) *. d'.(i - 1))) /. denom
    done;
    let x = Array.make n 0.0 in
    x.(n - 1) <- d'.(n - 1);
    for i = n - 2 downto 0 do
      x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
    done;
    x
  end

type factor = {
  f_sub : float array; (* original subdiagonal *)
  f_cprime : float array; (* Thomas c' coefficients *)
  f_denom : float array; (* forward-sweep denominators *)
}

let prefactor t =
  let n = dim t in
  let cprime = Array.make (max 0 n) 0.0 in
  let denom = Array.make (max 0 n) 0.0 in
  if n > 0 then begin
    if Float.abs t.diag.(0) < 1e-300 then raise (Singular 0);
    denom.(0) <- t.diag.(0);
    if n > 1 then cprime.(0) <- t.sup.(0) /. t.diag.(0);
    for i = 1 to n - 1 do
      let d = t.diag.(i) -. (t.sub.(i - 1) *. cprime.(i - 1)) in
      if Float.abs d < 1e-300 then raise (Singular i);
      denom.(i) <- d;
      if i < n - 1 then cprime.(i) <- t.sup.(i) /. d
    done
  end;
  { f_sub = Array.copy t.sub; f_cprime = cprime; f_denom = denom }

(* Band LU with partial pivoting: pivoting between adjacent rows introduces
   one extra superdiagonal [sup2]. *)
let solve_pivoting t b =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Tridiag.solve_pivoting: dimension";
  if n = 0 then [||]
  else begin
    let diag = Array.copy t.diag in
    let sup = Array.append (Array.copy t.sup) [| 0.0 |] in
    let sup2 = Array.make n 0.0 in
    let sub = Array.append (Array.copy t.sub) [| 0.0 |] in
    let rhs = Array.copy b in
    let scale_ref =
      Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 diag
    in
    let tol = 1e-14 *. Float.max 1.0 scale_ref in
    for k = 0 to n - 2 do
      if Float.abs sub.(k) > Float.abs diag.(k) then begin
        (* swap rows k and k+1 *)
        let swap a i j =
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        in
        let tmp = diag.(k) in
        diag.(k) <- sub.(k);
        sub.(k) <- tmp;
        let tmp = sup.(k) in
        sup.(k) <- diag.(k + 1);
        diag.(k + 1) <- tmp;
        let tmp = sup2.(k) in
        sup2.(k) <- sup.(k + 1);
        sup.(k + 1) <- tmp;
        swap rhs k (k + 1)
      end;
      if Float.abs diag.(k) <= tol then raise (Singular k);
      let m = sub.(k) /. diag.(k) in
      diag.(k + 1) <- diag.(k + 1) -. (m *. sup.(k));
      sup.(k + 1) <- sup.(k + 1) -. (m *. sup2.(k));
      rhs.(k + 1) <- rhs.(k + 1) -. (m *. rhs.(k))
    done;
    if Float.abs diag.(n - 1) <= tol then raise (Singular (n - 1));
    let x = Array.make n 0.0 in
    x.(n - 1) <- rhs.(n - 1) /. diag.(n - 1);
    if n >= 2 then
      x.(n - 2) <- (rhs.(n - 2) -. (sup.(n - 2) *. x.(n - 1))) /. diag.(n - 2);
    for i = n - 3 downto 0 do
      x.(i) <-
        (rhs.(i) -. (sup.(i) *. x.(i + 1)) -. (sup2.(i) *. x.(i + 2)))
        /. diag.(i)
    done;
    x
  end

let is_diagonally_dominant t =
  let n = dim t in
  let ok = ref true in
  for i = 0 to n - 1 do
    let off =
      (if i > 0 then Float.abs t.sub.(i - 1) else 0.0)
      +. (if i < n - 1 then Float.abs t.sup.(i) else 0.0)
    in
    if Float.abs t.diag.(i) < off then ok := false
  done;
  !ok
