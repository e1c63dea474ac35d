open Mclh_linalg

type path = Sherman_morrison | Exact_chains

(* assoc-list dot product with a two-nonzero B row *)
let dot_with_row entries (l, j) =
  let look v =
    List.fold_left
      (fun acc (v', value) -> if v' = v then acc +. value else acc)
      0.0 entries
  in
  look j -. look l

(* column c_i = Q~^-1 B_i^T for the exact path *)
let column_exact (model : Model.t) ~lambda (l, j) =
  Blocks.solve_shifted_sparse ~alpha:1.0 ~coef:lambda model.blocks
    [ (l, -1.0); (j, 1.0) ]

(* column via the closed form, valid when every chain is a pair:
   c_i = B_i^T - mu E^T E B_i^T with mu = lambda/(2 lambda + 1) *)
let column_sm ~partner ~lambda (l, j) =
  let mu = lambda /. ((2.0 *. lambda) +. 1.0) in
  let contrib acc (v, coeff) =
    let acc = (v, coeff) :: acc in
    match partner.(v) with
    | -1 -> acc
    | p -> (v, -.mu *. coeff) :: (p, mu *. coeff) :: acc
  in
  List.fold_left contrib [] [ (l, -1.0); (j, 1.0) ]

let partner_array (model : Model.t) =
  let partner = Array.make model.nvars (-1) in
  for c = 0 to Blocks.num_chains model.blocks - 1 do
    let vars = Blocks.chain_vars model.blocks c in
    if Array.length vars <> 2 then
      invalid_arg
        "Schur: Sherman-Morrison path requires all chains of length two";
    partner.(vars.(0)) <- vars.(1);
    partner.(vars.(1)) <- vars.(0)
  done;
  partner

let tridiag ?path (model : Model.t) ~lambda =
  if lambda <= 0.0 then invalid_arg "Schur.tridiag: lambda must be positive";
  let m = Model.num_constraints model in
  let path =
    match path with
    | Some p -> p
    | None ->
      if Blocks.all_double model.blocks then Sherman_morrison else Exact_chains
  in
  let column =
    match path with
    | Exact_chains -> column_exact model ~lambda
    | Sherman_morrison ->
      let partner = partner_array model in
      column_sm ~partner ~lambda
  in
  (* constraint i couples (left.(i), left.(i) + 1); ints rather than
     [Decompose.constraint_pairs]' tuples, which cost ~14 ms more per
     operator set on a 280k-constraint shard *)
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
