(* Test-only reference for [Schur.tridiag]: each column Q~^-1 B_i^T
   built as an association list (the closed form or
   [Blocks.solve_shifted_sparse]) and dotted with the B rows by folding
   over it. The production code computes the same sums term by term
   without the lists and must match this bit for bit. *)

open Mclh_core
open Mclh_linalg

(* assoc-list dot product with a two-nonzero B row *)
let dot_with_row entries (l, j) =
  let look v =
    List.fold_left
      (fun acc (v', value) -> if v' = v then acc +. value else acc)
      0.0 entries
  in
  look j -. look l

let column_exact (model : Model.t) ~lambda (l, j) =
  Blocks.solve_shifted_sparse ~alpha:1.0 ~coef:lambda model.blocks
    [ (l, -1.0); (j, 1.0) ]

(* c_i = B_i^T - mu E^T E B_i^T with mu = lambda/(2 lambda + 1), valid
   when every chain is a pair *)
let column_sm ~partner ~lambda (l, j) =
  let mu = lambda /. ((2.0 *. lambda) +. 1.0) in
  let contrib acc (v, coeff) =
    let acc = (v, coeff) :: acc in
    match partner.(v) with
    | -1 -> acc
    | p -> (v, -.mu *. coeff) :: (p, mu *. coeff) :: acc
  in
  List.fold_left contrib [] [ (l, -1.0); (j, 1.0) ]

let tridiag ~path (model : Model.t) ~lambda =
  let m = Model.num_constraints model in
  let column =
    match path with
    | Schur.Exact_chains -> column_exact model ~lambda
    | Schur.Sherman_morrison ->
      let partner = Array.make model.nvars (-1) in
      for c = 0 to Blocks.num_chains model.blocks - 1 do
        let vars = Blocks.chain_vars model.blocks c in
        partner.(vars.(0)) <- vars.(1);
        partner.(vars.(1)) <- vars.(0)
      done;
      column_sm ~partner ~lambda
  in
  let left = Model.constraint_left model in
  let pair i = (left.(i), left.(i) + 1) in
  let diag = Array.make m 0.0 in
  let off = Array.make (max 0 (m - 1)) 0.0 in
  for i = 0 to m - 1 do
    let c = column (pair i) in
    diag.(i) <- dot_with_row c (pair i);
    if i + 1 < m && not (Array.length model.d_split > 0 && model.d_split.(i))
    then off.(i) <- dot_with_row c (pair (i + 1))
  done;
  Tridiag.of_symmetric ~diag ~off
