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

let b_row_pair (model : Model.t) i =
  match Csr.row_entries (Model.b_mat model) i with
  | [ (l, -1.0); (j, 1.0) ] -> (l, j)
  | [ (j, 1.0); (l, -1.0) ] -> (l, j)
  | _ -> invalid_arg "Schur: constraint row is not a (-1, +1) pair"

(* column c_i = Q~^-1 B_i^T for the exact path *)
let column_exact (model : Model.t) ~lambda i =
  let l, j = b_row_pair model i in
  Blocks.solve_shifted_sparse ~alpha:1.0 ~coef:lambda model.blocks
    [ (l, -1.0); (j, 1.0) ]

(* column via the closed form, valid when every chain is a pair:
   c_i = B_i^T - mu E^T E B_i^T with mu = lambda/(2 lambda + 1) *)
let column_sm (model : Model.t) ~partner ~lambda i =
  let mu = lambda /. ((2.0 *. lambda) +. 1.0) in
  let l, j = b_row_pair model i in
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
      column_sm model ~partner ~lambda
  in
  let diag = Array.make m 0.0 in
  let off = Array.make (max 0 (m - 1)) 0.0 in
  for i = 0 to m - 1 do
    let c = column i in
    diag.(i) <- dot_with_row c (b_row_pair model i);
    if i + 1 < m && not (Array.length model.d_split > 0 && model.d_split.(i))
    then off.(i) <- dot_with_row c (b_row_pair model (i + 1))
  done;
  Tridiag.of_symmetric ~diag ~off

let dense (model : Model.t) ~lambda =
  let m = Model.num_constraints model in
  let out = Dense.create m m in
  for i = 0 to m - 1 do
    let c = column_exact model ~lambda i in
    for k = 0 to m - 1 do
      Dense.set out k i (dot_with_row c (b_row_pair model k))
    done
  done;
  out
