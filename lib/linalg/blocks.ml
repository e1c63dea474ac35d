type t = {
  nvars : int;
  chains : int array array; (* hub first; every chain has length >= 2 *)
  chain_of : int array; (* var -> chain id, or -1 *)
  free : int array; (* the variables in no chain, ascending *)
}

let of_array ~nvars chains =
  if nvars < 0 then invalid_arg "Blocks.make: negative nvars";
  let chains =
    if Array.for_all (fun c -> Array.length c >= 2) chains then chains
    else begin
      (* drop degenerate chains without list intermediates *)
      let kept = ref 0 in
      Array.iter (fun c -> if Array.length c >= 2 then incr kept) chains;
      let out = Array.make !kept [||] in
      let k = ref 0 in
      Array.iter
        (fun c ->
          if Array.length c >= 2 then begin
            out.(!k) <- c;
            incr k
          end)
        chains;
      out
    end
  in
  let chain_of = Array.make nvars (-1) in
  Array.iteri
    (fun c vars ->
      Array.iter
        (fun v ->
          if v < 0 || v >= nvars then
            invalid_arg "Blocks.make: variable index out of range";
          if chain_of.(v) <> -1 then
            invalid_arg "Blocks.make: variable in two chains";
          chain_of.(v) <- c)
        vars)
    chains;
  let free =
    Array.make
      (nvars - Array.fold_left (fun acc c -> acc + Array.length c) 0 chains)
      0
  in
  let k = ref 0 in
  Array.iteri
    (fun v c ->
      if c = -1 then begin
        free.(!k) <- v;
        incr k
      end)
    chain_of;
  { nvars; chains; chain_of; free }

let make ~nvars chain_list = of_array ~nvars (Array.of_list chain_list)

let nvars t = t.nvars
let num_chains t = Array.length t.chains

let num_constraints t =
  Array.fold_left (fun acc c -> acc + Array.length c - 1) 0 t.chains

let chain_vars t c = Array.copy t.chains.(c)

let apply_ete_into t ~dim x dst =
  if dim < t.nvars || Array.length x <> dim || Array.length dst <> dim then
    invalid_arg "Blocks.apply_ete_into: dimension mismatch";
  if x == dst then invalid_arg "Blocks.apply_ete_into: aliased arguments";
  Array.fill dst 0 t.nvars 0.0;
  for c = 0 to Array.length t.chains - 1 do
    let vars = t.chains.(c) in
    let hub = vars.(0) in
    let d = Array.length vars in
    let sum_spokes = ref 0.0 in
    for k = 1 to d - 1 do
      let s = vars.(k) in
      dst.(s) <- x.(s) -. x.(hub);
      sum_spokes := !sum_spokes +. x.(s)
    done;
    dst.(hub) <- (float_of_int (d - 1) *. x.(hub)) -. !sum_spokes
  done

let apply_ete t x =
  let dst = Array.make t.nvars 0.0 in
  apply_ete_into t ~dim:t.nvars x dst;
  dst

(* Arrowhead solve for one chain of (alpha I + coef E^T E):
     hub row:   (alpha + coef (d-1)) y_h - coef sum_k y_sk = b_h
     spoke row: (alpha + coef) y_sk - coef y_h             = b_sk
   Eliminating the spokes gives
     y_h = (b_h + coef/(alpha+coef) * sum_k b_sk)
           * (alpha + coef) / (alpha (alpha + coef d)). *)
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

let check_params ~alpha ~coef =
  if not (alpha > 0.0) then invalid_arg "Blocks.solve_shifted: alpha <= 0";
  if coef < 0.0 then invalid_arg "Blocks.solve_shifted: coef < 0"

(* Allocation-free: this runs once per MMSIM iteration, so the
   arrowhead arithmetic of [solve_chain] is unrolled here over [b]/[dst]
   directly. b == dst is safe: y_hub depends only on b values read
   before the hub write, and each spoke reads its own b.(s) before
   overwriting it. *)
let solve_shifted_into ~alpha ~coef t ~dim b dst =
  check_params ~alpha ~coef;
  if dim < t.nvars || Array.length b <> dim || Array.length dst <> dim then
    invalid_arg "Blocks.solve_shifted_into: dimension mismatch";
  let ac = alpha +. coef in
  for c = 0 to Array.length t.chains - 1 do
    let vars = t.chains.(c) in
    let d = Array.length vars in
    let hub = vars.(0) in
    let sum_spoke_b = ref 0.0 in
    for k = 1 to d - 1 do
      sum_spoke_b := !sum_spoke_b +. b.(vars.(k))
    done;
    let y_hub =
      (b.(hub) +. (coef /. ac *. !sum_spoke_b))
      *. ac
      /. (alpha *. (alpha +. (coef *. float_of_int d)))
    in
    dst.(hub) <- y_hub;
    for k = 1 to d - 1 do
      let s = vars.(k) in
      dst.(s) <- (b.(s) +. (coef *. y_hub)) /. ac
    done
  done;
  (* variables in no chain: the diagonal part *)
  let inv_alpha = 1.0 /. alpha in
  let free = t.free in
  for i = 0 to Array.length free - 1 do
    let v = free.(i) in
    dst.(v) <- b.(v) *. inv_alpha
  done

let solve_shifted ~alpha ~coef t b =
  let dst = Array.make t.nvars 0.0 in
  solve_shifted_into ~alpha ~coef t ~dim:t.nvars b dst;
  dst

let solve_shifted_sparse ~alpha ~coef t entries =
  check_params ~alpha ~coef;
  let touched = Hashtbl.create 8 in
  let singles = ref [] in
  List.iter
    (fun (v, value) ->
      if v < 0 || v >= t.nvars then
        invalid_arg "Blocks.solve_shifted_sparse: index out of range";
      match t.chain_of.(v) with
      | -1 -> singles := (v, value /. alpha) :: !singles
      | c ->
        let prev = try Hashtbl.find touched c with Not_found -> [] in
        Hashtbl.replace touched c ((v, value) :: prev))
    entries;
  let results = ref !singles in
  Hashtbl.iter
    (fun c chain_entries ->
      let vars = t.chains.(c) in
      let b v =
        List.fold_left
          (fun acc (v', value) -> if v' = v then acc +. value else acc)
          0.0 chain_entries
      in
      solve_chain ~alpha ~coef vars b (fun v y ->
          results := (v, y) :: !results))
    touched;
  !results

let mismatch t x =
  if Array.length x <> t.nvars then invalid_arg "Blocks.mismatch: dimension";
  Array.fold_left
    (fun acc vars ->
      let hub = x.(vars.(0)) in
      let worst = ref acc in
      for k = 1 to Array.length vars - 1 do
        worst := Float.max !worst (Float.abs (x.(vars.(k)) -. hub))
      done;
      !worst)
    0.0 t.chains

let average_into t x =
  if Array.length x <> t.nvars then invalid_arg "Blocks.average_into: dimension";
  Array.iter
    (fun vars ->
      let sum = Array.fold_left (fun acc v -> acc +. x.(v)) 0.0 vars in
      let mean = sum /. float_of_int (Array.length vars) in
      Array.iter (fun v -> x.(v) <- mean) vars)
    t.chains

let e_matrix t =
  let coo = Coo.create ~rows:(num_constraints t) ~cols:t.nvars in
  let row = ref 0 in
  Array.iter
    (fun vars ->
      let hub = vars.(0) in
      for k = 1 to Array.length vars - 1 do
        Coo.add coo !row hub (-1.0);
        Coo.add coo !row vars.(k) 1.0;
        incr row
      done)
    t.chains;
  Coo.to_csr coo

let all_double t =
  Array.for_all (fun vars -> Array.length vars = 2) t.chains
