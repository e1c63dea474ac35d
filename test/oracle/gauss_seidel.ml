(* The textbook modulus-based Gauss-Seidel splitting of an explicit
   matrix, the reference instantiation of the generic MMSIM loop. *)

open Mclh_linalg
open Mclh_lcp

let operators a =
  let n = Csr.rows a in
  if Csr.cols a <> n then
    invalid_arg "Gauss_seidel.operators: matrix not square";
  let diag = Array.make n 0.0 in
  Csr.iter a (fun i j v -> if i = j then diag.(i) <- diag.(i) +. v);
  Array.iteri
    (fun i d ->
      if d <= 0.0 then
        invalid_arg
          (Printf.sprintf
             "Gauss_seidel.operators: nonpositive diagonal at %d" i))
    diag;
  (* split the strict triangular parts once: [apply_n_into] and
     [solve_m_omega_into] run every iteration and must not re-walk the
     full matrix each time *)
  let strict_part keep =
    let row_ptr = Array.make (n + 1) 0 in
    Csr.iter a (fun i j _ -> if keep i j then row_ptr.(i + 1) <- row_ptr.(i + 1) + 1);
    for i = 1 to n do
      row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
    done;
    let count = row_ptr.(n) in
    let col_idx = Array.make count 0 and values = Array.make count 0.0 in
    let fill = Array.copy row_ptr in
    Csr.iter a (fun i j v ->
        if keep i j then begin
          col_idx.(fill.(i)) <- j;
          values.(fill.(i)) <- v;
          fill.(i) <- fill.(i) + 1
        end);
    (row_ptr, col_idx, values)
  in
  let up_ptr, up_col, up_val = strict_part (fun i j -> j > i) in
  let lo_ptr, lo_col, lo_val = strict_part (fun i j -> j < i) in
  let apply_a_into v dst = Csr.mul_vec_into a v dst in
  (* N = -U: strictly upper part, negated *)
  let apply_n_into v dst =
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = up_ptr.(i) to up_ptr.(i + 1) - 1 do
        acc := !acc -. (up_val.(k) *. v.(up_col.(k)))
      done;
      dst.(i) <- !acc
    done
  in
  (* (M + I) x = rhs with M = D + L: forward substitution; row i
     reads rhs.(i) before writing dst.(i), so rhs may alias dst *)
  let solve_m_omega_into rhs dst =
    for i = 0 to n - 1 do
      let acc = ref rhs.(i) in
      for k = lo_ptr.(i) to lo_ptr.(i + 1) - 1 do
        acc := !acc -. (lo_val.(k) *. dst.(lo_col.(k)))
      done;
      dst.(i) <- !acc /. (diag.(i) +. 1.0)
    done
  in
  { Mmsim.dim = n;
    apply_a_into;
    apply_n_into;
    solve_m_omega_into;
    chunks = 1;
    region = Mmsim.sequential }
