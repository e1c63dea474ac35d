open Mclh_linalg

let tridiag (model : Model.t) ~lambda =
  if lambda <= 0.0 then invalid_arg "Schur.tridiag: lambda must be positive";
  let m = Model.num_constraints model in
  let blocks = model.blocks in
  (* [col] holds the column c = Q~^-1 B_i^T for the pair (l, j) of
     constraint i, from one arrowhead solve of the chains holding l and j,
     and zero elsewhere; each entry is read summed from 0.0 so that a lone
     -0 reads +0 *)
  let col = Array.make model.nvars 0.0 in
  (* constraint i couples (left.(i), left.(i) + 1); B_k c is the column's
     entry at k's right variable minus the one at its left *)
  let left = Model.constraint_left model in
  let diag = Array.make m 0.0 in
  let off = Array.make (max 0 (m - 1)) 0.0 in
  for i = 0 to m - 1 do
    let l = left.(i) in
    let j = l + 1 in
    Blocks.solve_pair_into ~alpha:1.0 ~coef:lambda blocks ~l ~j col;
    diag.(i) <- (0.0 +. col.(j)) -. (0.0 +. col.(l));
    if i + 1 < m && not (Array.length model.d_split > 0 && model.d_split.(i))
    then begin
      let l' = left.(i + 1) in
      off.(i) <- (0.0 +. col.(l' + 1)) -. (0.0 +. col.(l'))
    end;
    Blocks.clear_pair blocks ~l ~j col
  done;
  Tridiag.of_symmetric ~diag ~off
