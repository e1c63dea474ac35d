(* Test-only references for [Schur.tridiag]: each column Q~^-1 B_i^T
   built as an association list and dotted with the B rows by folding
   over it. [tridiag] takes the columns from [solve_shifted_sparse], the
   formula the production code sums term by term without the lists, and
   must match it bit for bit.
   [tridiag_sm] takes them from the paper's Sherman-Morrison closed form,
   exact when every chain is a pair. *)

open Mclh_core
open Mclh_linalg

(* the arrowhead solve of one chain of (alpha I + coef E^T E), reading
   the right-hand side and writing the solution through closures *)
let solve_chain ~alpha ~coef vars b set =
  let d = Array.length vars in
  let hub = vars.(0) in
  let sum_spoke_b = ref 0.0 in
  for k = 1 to d - 1 do
    sum_spoke_b := !sum_spoke_b +. b vars.(k)
  done;
  let ac = alpha +. coef in
  let y_hub =
    (b hub +. (coef /. ac *. !sum_spoke_b))
    *. ac
    /. (alpha *. (alpha +. (coef *. float_of_int d)))
  in
  set hub y_hub;
  for k = 1 to d - 1 do
    let s = vars.(k) in
    set s ((b s +. (coef *. y_hub)) /. ac)
  done

(* [Blocks.solve_shifted] for a sparse right-hand side given as an
   association list, returning only the entries it reaches: all the
   variables of every chain it touches, and value / alpha at a chain-free
   variable *)
let solve_shifted_sparse ~alpha ~coef blocks entries =
  let chain_of = Array.make (Blocks.nvars blocks) (-1) in
  for c = 0 to Blocks.num_chains blocks - 1 do
    Array.iter (fun v -> chain_of.(v) <- c) (Blocks.chain_vars blocks c)
  done;
  let touched = Hashtbl.create 8 in
  let singles = ref [] in
  List.iter
    (fun (v, value) ->
      match chain_of.(v) with
      | -1 -> singles := (v, value /. alpha) :: !singles
      | c ->
        let prev = try Hashtbl.find touched c with Not_found -> [] in
        Hashtbl.replace touched c ((v, value) :: prev))
    entries;
  let results = ref !singles in
  Hashtbl.iter
    (fun c chain_entries ->
      let b v =
        List.fold_left
          (fun acc (v', value) -> if v' = v then acc +. value else acc)
          0.0 chain_entries
      in
      solve_chain ~alpha ~coef (Blocks.chain_vars blocks c) b (fun v y ->
          results := (v, y) :: !results))
    touched;
  !results

(* assoc-list dot product with a two-nonzero B row *)
let dot_with_row entries (l, j) =
  let look v =
    List.fold_left
      (fun acc (v', value) -> if v' = v then acc +. value else acc)
      0.0 entries
  in
  look j -. look l

let column_exact (model : Model.t) ~lambda (l, j) =
  solve_shifted_sparse ~alpha:1.0 ~coef:lambda model.blocks
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

(* every chain spans exactly two rows: the closed form's condition *)
let all_double (model : Model.t) =
  let blocks = model.blocks in
  List.for_all
    (fun c -> Array.length (Blocks.chain_vars blocks c) = 2)
    (List.init (Blocks.num_chains blocks) Fun.id)

let of_columns column (model : Model.t) =
  let m = Model.num_constraints model in
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

let tridiag (model : Model.t) ~lambda =
  of_columns (column_exact model ~lambda) model

let tridiag_sm (model : Model.t) ~lambda =
  let partner = Array.make model.nvars (-1) in
  for c = 0 to Blocks.num_chains model.blocks - 1 do
    match Blocks.chain_vars model.blocks c with
    | [| a; b |] ->
      partner.(a) <- b;
      partner.(b) <- a
    | _ -> invalid_arg "Schur_ref.tridiag_sm: a chain is not a pair"
  done;
  of_columns (column_sm ~partner ~lambda) model
