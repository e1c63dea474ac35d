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
let chain_length t c = Array.length t.chains.(c)
let chain_var t c k = t.chains.(c).(k)
let chain_of_var t v = t.chain_of.(v)

(* the whole product, chain by chain: the reference the part kernels
   below must match *)
let apply_ete t x =
  if Array.length x <> t.nvars then invalid_arg "Blocks.apply_ete: dimension";
  let dst = Array.make t.nvars 0.0 in
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
  done;
  dst

let check_params ~alpha ~coef =
  if not (alpha > 0.0) then invalid_arg "Blocks.solve_shifted: alpha <= 0";
  if coef < 0.0 then invalid_arg "Blocks.solve_shifted: coef < 0"

(* Arrowhead solve for one chain of (alpha I + coef E^T E):
     hub row:   (alpha + coef (d-1)) y_h - coef sum_k y_sk = b_h
     spoke row: (alpha + coef) y_sk - coef y_h             = b_sk
   Eliminating the spokes gives
     y_h = (b_h + coef/(alpha+coef) * sum_k b_sk)
           * (alpha + coef) / (alpha (alpha + coef d)),
   here over [b]/[dst] for the chain of [d] variables at [vars.(off)]
   (hub) .. [vars.(off + d - 1)], allocation-free. b == dst is safe: y_hub
   depends only on b values read before the hub write, and each spoke
   reads its own b.(s) before overwriting it. *)
let solve_chain_into ~alpha ~coef vars off d b dst =
  let hub = vars.(off) in
  let ac = alpha +. coef in
  let sum_spoke_b = ref 0.0 in
  for k = 1 to d - 1 do
    sum_spoke_b := !sum_spoke_b +. b.(vars.(off + k))
  done;
  let y_hub =
    (b.(hub) +. (coef /. ac *. !sum_spoke_b))
    *. ac
    /. (alpha *. (alpha +. (coef *. float_of_int d)))
  in
  dst.(hub) <- y_hub;
  for k = 1 to d - 1 do
    let s = vars.(off + k) in
    dst.(s) <- (b.(s) +. (coef *. y_hub)) /. ac
  done

let solve_shifted ~alpha ~coef t b =
  check_params ~alpha ~coef;
  if Array.length b <> t.nvars then invalid_arg "Blocks.solve_shifted: dimension";
  let dst = Array.make t.nvars 0.0 in
  for c = 0 to Array.length t.chains - 1 do
    let vars = t.chains.(c) in
    solve_chain_into ~alpha ~coef vars 0 (Array.length vars) b dst
  done;
  (* variables in no chain: the diagonal part *)
  let inv_alpha = 1.0 /. alpha in
  let free = t.free in
  for i = 0 to Array.length free - 1 do
    let v = free.(i) in
    dst.(v) <- b.(v) *. inv_alpha
  done;
  dst

(* one chain of the pair solve, in place on its slice of [y] after
   writing its part of e_j - e_l there *)
let solve_pair_chain ~alpha ~coef vars ~l ~j y =
  for k = 0 to Array.length vars - 1 do
    let u = vars.(k) in
    y.(u) <- (if u = l then -1.0 else if u = j then 1.0 else 0.0)
  done;
  solve_chain_into ~alpha ~coef vars 0 (Array.length vars) y y

let solve_pair_into ~alpha ~coef t ~l ~j y =
  check_params ~alpha ~coef;
  if Array.length y <> t.nvars then
    invalid_arg "Blocks.solve_pair_into: dimension";
  let cl = t.chain_of.(l) and cj = t.chain_of.(j) in
  if cl >= 0 then solve_pair_chain ~alpha ~coef t.chains.(cl) ~l ~j y
  else y.(l) <- -1.0 /. alpha;
  if cj < 0 then y.(j) <- 1.0 /. alpha
  else if cj <> cl then solve_pair_chain ~alpha ~coef t.chains.(cj) ~l ~j y

(* zero the chain [c] holding [v], or [v] alone when it is chain-free *)
let clear_chain t c v y =
  if c < 0 then y.(v) <- 0.0
  else begin
    let vars = t.chains.(c) in
    for k = 0 to Array.length vars - 1 do
      y.(vars.(k)) <- 0.0
    done
  end

let clear_pair t ~l ~j y =
  clear_chain t t.chain_of.(l) l y;
  clear_chain t t.chain_of.(j) j y

(* ---------- the chains split by variable range ---------- *)

type split = {
  cuts : int array;
  hub_vars : int array;
      (* the chains' variables, hub first, chain after chain by ascending
         hub: stored where a part's walk reads them next *)
  hub_ptr : int array; (* chain i of the walk: hub_vars.(hub_ptr.(i) ..) *)
  hub_lo : int array;
  spokes : int array; (* ascending *)
  spoke_hub : int array;
  spoke_lo : int array;
  free_vars : int array; (* ascending *)
  free_lo : int array;
}

let split t cuts =
  let parts = Array.length cuts - 1 in
  if parts < 1 || cuts.(0) <> 0 || cuts.(parts) <> t.nvars then
    invalid_arg "Blocks.split: cuts must run from 0 to nvars";
  for p = 0 to parts - 1 do
    if cuts.(p) > cuts.(p + 1) then invalid_arg "Blocks.split: descending cuts"
  done;
  let nh = Array.length t.chains and ns = num_constraints t in
  let nf = Array.length t.free in
  let hub_vars = Array.make (nh + ns) 0 and hub_ptr = Array.make (nh + 1) 0 in
  let spokes = Array.make ns 0 and spoke_hub = Array.make ns 0 in
  let free_vars = Array.make nf 0 in
  let hub_lo = Array.make (parts + 1) nh and spoke_lo = Array.make (parts + 1) ns
  and free_lo = Array.make (parts + 1) nf in
  hub_lo.(0) <- 0;
  spoke_lo.(0) <- 0;
  free_lo.(0) <- 0;
  (* one ascending walk files every variable under its part and kind *)
  let ih = ref 0 and is = ref 0 and iv = ref 0 and p = ref 0 in
  for v = 0 to t.nvars - 1 do
    while v >= cuts.(!p + 1) do
      incr p;
      hub_lo.(!p) <- !ih;
      spoke_lo.(!p) <- !is;
      free_lo.(!p) <- !iv
    done;
    let c = t.chain_of.(v) in
    if c < 0 then begin
      free_vars.(!iv) <- v;
      incr iv
    end
    else begin
      let vars = t.chains.(c) in
      if vars.(0) = v then begin
        let at = hub_ptr.(!ih) in
        Array.blit vars 0 hub_vars at (Array.length vars);
        hub_ptr.(!ih + 1) <- at + Array.length vars;
        incr ih
      end
      else begin
        spokes.(!is) <- v;
        spoke_hub.(!is) <- vars.(0);
        incr is
      end
    end
  done;
  { cuts; hub_vars; hub_ptr; hub_lo; spokes; spoke_hub; spoke_lo; free_vars;
    free_lo }

let check_part name t s p ~dim x dst =
  if p < 0 || p >= Array.length s.cuts - 1 then invalid_arg (name ^ ": no such part");
  if dim < t.nvars || Array.length x <> dim || Array.length dst <> dim then
    invalid_arg (name ^ ": dimension mismatch")

let apply_ete_part_into t s p ~dim x dst =
  check_part "Blocks.apply_ete_part_into" t s p ~dim x dst;
  if x == dst then invalid_arg "Blocks.apply_ete_part_into: aliased arguments";
  let lo = s.cuts.(p) in
  Array.fill dst lo (s.cuts.(p + 1) - lo) 0.0;
  for i = s.spoke_lo.(p) to s.spoke_lo.(p + 1) - 1 do
    let v = s.spokes.(i) in
    dst.(v) <- x.(v) -. x.(s.spoke_hub.(i))
  done;
  let vars = s.hub_vars in
  for i = s.hub_lo.(p) to s.hub_lo.(p + 1) - 1 do
    let off = s.hub_ptr.(i) in
    let hub = vars.(off) and d = s.hub_ptr.(i + 1) - off in
    let sum_spokes = ref 0.0 in
    for k = 1 to d - 1 do
      sum_spokes := !sum_spokes +. x.(vars.(off + k))
    done;
    dst.(hub) <- (float_of_int (d - 1) *. x.(hub)) -. !sum_spokes
  done

let solve_shifted_part_into ~alpha ~coef t s p ~dim b dst =
  check_params ~alpha ~coef;
  check_part "Blocks.solve_shifted_part_into" t s p ~dim b dst;
  for i = s.hub_lo.(p) to s.hub_lo.(p + 1) - 1 do
    let off = s.hub_ptr.(i) in
    solve_chain_into ~alpha ~coef s.hub_vars off (s.hub_ptr.(i + 1) - off) b dst
  done;
  let inv_alpha = 1.0 /. alpha in
  for i = s.free_lo.(p) to s.free_lo.(p + 1) - 1 do
    let v = s.free_vars.(i) in
    dst.(v) <- b.(v) *. inv_alpha
  done

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
