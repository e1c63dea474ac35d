type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let of_string s = { state = fnv1a s }

let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, bound) by rejection: [v mod bound] alone is biased for
   any bound that does not divide 2^62 (the low residues are hit one extra
   time). Draw 62-bit values and reject those at or above the largest
   multiple of bound, so every residue is equally likely; the rejection
   probability is bound / 2^62 per draw. *)
let two_62 = Int64.shift_left 1L 62

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let b = Int64.of_int bound in
  let limit = Int64.sub two_62 (Int64.rem two_62 b) in
  let rec draw () =
    let v = Int64.shift_right_logical (next_int64 t) 2 in
    if v >= limit then draw () else Int64.to_int (Int64.rem v b)
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0) (* 2^53 *)

let gaussian t =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t 1.0 in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
  in
  draw ()

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
