open Mclh_linalg

type path = Sherman_morrison | Exact_chains

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

(* Entry [v] of the column c = Q~^-1 B_i^T for the pair (l, j) of
   constraint i, as a sum over the column's sparse terms in a fixed
   order (starting from 0.0, so a lone -0 term reads +0).

   Sherman-Morrison, when every chain is a pair: c = B_i^T - mu E^T E
   B_i^T with mu = lambda/(2 lambda + 1). Its terms, in summation order:
   (j, -mu) and (partner j, mu) when j has a partner, (j, 1), then
   (l, mu) and (partner l, -mu) when l has one, then (l, -1).

   Exact chains: the arrowhead solve of each chain holding l or j
   ({!Blocks.solve_pair_entry}); every variable carries one term. *)
let entry_sm ~partner ~mu ~l ~j v =
  let acc = ref 0.0 in
  let pj = partner.(j) and pl = partner.(l) in
  if pj >= 0 then begin
    if j = v then acc := !acc +. (-.mu *. 1.0);
    if pj = v then acc := !acc +. (mu *. 1.0)
  end;
  if j = v then acc := !acc +. 1.0;
  if pl >= 0 then begin
    if l = v then acc := !acc +. (-.mu *. -1.0);
    if pl = v then acc := !acc +. (mu *. -1.0)
  end;
  if l = v then acc := !acc +. -1.0;
  !acc

let tridiag ?path (model : Model.t) ~lambda =
  if lambda <= 0.0 then invalid_arg "Schur.tridiag: lambda must be positive";
  let m = Model.num_constraints model in
  let path =
    match path with
    | Some p -> p
    | None ->
      if Blocks.all_double model.blocks then Sherman_morrison else Exact_chains
  in
  let entry =
    match path with
    | Exact_chains ->
      let blocks = model.blocks in
      fun ~l ~j v ->
        0.0 +. Blocks.solve_pair_entry ~alpha:1.0 ~coef:lambda blocks ~l ~j v
    | Sherman_morrison ->
      let partner = partner_array model in
      let mu = lambda /. ((2.0 *. lambda) +. 1.0) in
      entry_sm ~partner ~mu
  in
  (* constraint i couples (left.(i), left.(i) + 1); B_k c is the column's
     entry at k's right variable minus the one at its left *)
  let left = Model.constraint_left model in
  let diag = Array.make m 0.0 in
  let off = Array.make (max 0 (m - 1)) 0.0 in
  for i = 0 to m - 1 do
    let l = left.(i) in
    let j = l + 1 in
    diag.(i) <- entry ~l ~j j -. entry ~l ~j l;
    if i + 1 < m && not (Array.length model.d_split > 0 && model.d_split.(i))
    then begin
      let l' = left.(i + 1) in
      off.(i) <- entry ~l ~j (l' + 1) -. entry ~l ~j l'
    end
  done;
  Tridiag.of_symmetric ~diag ~off
