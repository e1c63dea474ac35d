open Mclh_linalg
open Mclh_circuit

type t = {
  design : Design.t;
  assignment : Row_assign.t;
  nvars : int;
  first_var : int array;
  var_cell : int array;
  var_row : int array;
  row_vars : int array array;
  b_rhs : Vec.t;
  p : Vec.t;
  shift : Vec.t;
  blocks : Blocks.t;
  d_split : bool array;
}

let num_constraints t = Array.length t.b_rhs

(* group g is the run [starts.(g), starts.(g + 1)) and owns the
   constraints (v, v + 1) numbered from starts.(g) - g, one per adjacent
   pair: every group is nonempty, so each one ends a constraint short *)
let group_starts groups =
  let starts = Array.make (Array.length groups + 1) 0 in
  Array.iteri
    (fun g vars ->
      let l = Array.length vars in
      if l = 0 then invalid_arg "Model.group_starts: empty group";
      starts.(g + 1) <- starts.(g) + l)
    groups;
  starts

let constraint_left t =
  let starts = group_starts t.row_vars in
  let left = Array.make (num_constraints t) 0 in
  for g = 0 to Array.length t.row_vars - 1 do
    for v = starts.(g) to starts.(g + 1) - 2 do
      left.(v - g) <- v
    done
  done;
  left

(* one (-1, +1) row per adjacent pair, group by group, read from the
   groups' own ids: the pair is always in ascending column order, the
   sorted layout [Coo.to_csr] produces *)
let b_matrix t =
  let m = num_constraints t in
  let col_idx = Array.make (2 * m) 0 in
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 2 do
        col_idx.(2 * !ci) <- vars.(k);
        col_idx.((2 * !ci) + 1) <- vars.(k + 1);
        incr ci
      done)
    t.row_vars;
  Csr.make ~rows:m ~cols:t.nvars
    ~row_ptr:(Array.init (m + 1) (fun i -> 2 * i))
    ~col_idx
    ~values:(Array.init (2 * m) (fun p -> if p land 1 = 0 then -1.0 else 1.0))

(* run [f lo hi] over [0, count), in chunks of 4096 fanned over the
   shared pool when the caller asked for domains and the range is worth
   splitting; [f] must write disjoint state per index so either path
   produces the same bits *)
let iter_chunks ~num_domains count f =
  if num_domains > 1 && count >= 8192 then
    Mclh_par.Pool.parallel_iter (Mclh_par.Pool.get ~num_domains)
      (fun lo -> f lo (min count (lo + 4096)))
      (Array.init ((count + 4095) / 4096) (fun c -> c * 4096))
  else f 0 count

let build ?(num_domains = 1) (design : Design.t) (assignment : Row_assign.t) =
  let n = Design.num_cells design in
  let cells = design.cells in
  let gxs = design.global.Placement.xs in
  let rows = assignment.Row_assign.rows in
  let num_rows = design.chip.Chip.num_rows in
  (* subcells per chip row: row r owns the variable ids
     [row_start.(r), row_start.(r + 1)) *)
  let row_start = Array.make (num_rows + 1) 0 in
  for i = 0 to n - 1 do
    for r = rows.(i) to rows.(i) + cells.(i).Cell.height - 1 do
      row_start.(r + 1) <- row_start.(r + 1) + 1
    done
  done;
  for r = 0 to num_rows - 1 do
    row_start.(r + 1) <- row_start.(r + 1) + row_start.(r)
  done;
  let nvars = row_start.(num_rows) in
  let segments = Segments.compute design in
  let has_blk = Segments.has_blockages segments in
  (* per-cell segment choice and shift: a multi-row cell picks a segment in
     every spanned row and is measured from the rightmost of their left
     walls, so all its subcells share one shift and E u = 0 is preserved.
     [seg_of_sub] is the chosen segment's start per subcell (-1 when the
     row has no segment at all), indexed in cell order from [sub_base];
     it is the grouping key below. *)
  let sub_base = if has_blk then Array.make n 0 else [||] in
  if has_blk then
    for i = 1 to n - 1 do
      sub_base.(i) <- sub_base.(i - 1) + cells.(i - 1).Cell.height
    done;
  let seg_of_sub = if has_blk then Array.make nvars (-1) else [||] in
  let cell_shift = Array.make n 0 in
  if has_blk then
    iter_chunks ~num_domains n (fun lo hi ->
        for i = lo to hi - 1 do
          let c = cells.(i) in
          let gx = gxs.(i) in
          let sb = sub_base.(i) in
          let sh = ref 0 in
          for k = 0 to c.Cell.height - 1 do
            let start =
              Segments.locate segments ~row:(rows.(i) + k) ~x:gx
                ~width:c.Cell.width
            in
            seg_of_sub.(sb + k) <- start;
            if start > !sh then sh := start
          done;
          cell_shift.(i) <- !sh
        done);
  (* the variable numbering: bucket the cells per spanned row with a
     counting sort, then sort each row range by (global x, cell id) in
     place — the total order [Order.per_row] derives from its per-row
     lists, without materializing any. A variable's id is its final
     position, so [var_cell] is the bucket array itself. *)
  let var_cell = Array.make nvars 0 in
  let cursor = Array.sub row_start 0 num_rows in
  for i = 0 to n - 1 do
    for r = rows.(i) to rows.(i) + cells.(i).Cell.height - 1 do
      var_cell.(cursor.(r)) <- i;
      cursor.(r) <- cursor.(r) + 1
    done
  done;
  let cmp ca cb =
    let c = compare gxs.(ca) gxs.(cb) in
    if c <> 0 then c else compare ca cb
  in
  iter_chunks ~num_domains num_rows (fun lo hi ->
      for r = lo to hi - 1 do
        let base = row_start.(r) in
        let len = row_start.(r + 1) - base in
        if len > 1 then begin
          let tmp = Array.sub var_cell base len in
          Array.sort cmp tmp;
          Array.blit tmp 0 var_cell base len
        end
      done);
  (* groups: one per nonempty row; under blockages a row splits into one
     group per chosen segment, ordered by first appearance in x order
     (exactly the historical Hashtbl-based split). The split is a stable
     partition of the row's range, so every group is an ascending run of
     consecutive ids and the groups concatenate to [0, nvars). *)
  let gcap = ref (max 1 num_rows) and glen = ref 0 in
  let gbuf = ref (Array.make !gcap [||]) in
  let push_group start len =
    if !glen = !gcap then begin
      let grown = Array.make (2 * !gcap) [||] in
      Array.blit !gbuf 0 grown 0 !glen;
      gbuf := grown;
      gcap := 2 * !gcap
    end;
    !gbuf.(!glen) <- Array.init len (fun k -> start + k);
    incr glen
  in
  (* scratch reused across rows: distinct keys (first-appearance order),
     their member counts and fill cursors, each member's group and the
     partitioned row *)
  let keybuf = ref [||] and cntbuf = ref [||] in
  let grpbuf = ref [||] and rowbuf = ref [||] in
  for r = 0 to num_rows - 1 do
    let base = row_start.(r) in
    let len = row_start.(r + 1) - base in
    if len > 0 && not has_blk then push_group base len
    else if len > 0 then begin
      if Array.length !keybuf < len then begin
        keybuf := Array.make len 0;
        cntbuf := Array.make len 0;
        grpbuf := Array.make len 0;
        rowbuf := Array.make len 0
      end;
      let keys = !keybuf and cnts = !cntbuf in
      let grp = !grpbuf and row = !rowbuf in
      let nkeys = ref 0 in
      for idx = 0 to len - 1 do
        let c = var_cell.(base + idx) in
        let key = seg_of_sub.(sub_base.(c) + r - rows.(c)) in
        let j = ref 0 in
        while !j < !nkeys && keys.(!j) <> key do
          incr j
        done;
        if !j = !nkeys then begin
          keys.(!j) <- key;
          cnts.(!j) <- 0;
          incr nkeys
        end;
        grp.(idx) <- !j;
        cnts.(!j) <- cnts.(!j) + 1
      done;
      if !nkeys = 1 then push_group base len
      else begin
        (* counts become fill cursors at each group's start *)
        let start = ref 0 in
        for j = 0 to !nkeys - 1 do
          let c = cnts.(j) in
          push_group (base + !start) c;
          cnts.(j) <- !start;
          start := !start + c
        done;
        for idx = 0 to len - 1 do
          let j = grp.(idx) in
          row.(cnts.(j)) <- var_cell.(base + idx);
          cnts.(j) <- cnts.(j) + 1
        done;
        Array.blit row 0 var_cell base len
      end
    end
  done;
  let row_vars = Array.sub !gbuf 0 !glen in
  let var_row = Array.make nvars 0 in
  for r = 0 to num_rows - 1 do
    Array.fill var_row row_start.(r) (row_start.(r + 1) - row_start.(r)) r
  done;
  (* subcell-equality chains, one per multi-row cell in cell order, hub
     (bottom-row subcell) first. Until the sweep below has filled them,
     [first_var] holds a multi-row cell's chain index and -1 for a
     single-height cell, so the sweep reads no cell record. *)
  let first_var = Array.make n (-1) in
  let num_chains = ref 0 in
  for i = 0 to n - 1 do
    if cells.(i).Cell.height >= 2 then begin
      first_var.(i) <- !num_chains;
      incr num_chains
    end
  done;
  let chains = Array.make !num_chains [||] in
  for i = 0 to n - 1 do
    let h = cells.(i).Cell.height in
    if h >= 2 then chains.(first_var.(i)) <- Array.make h 0
  done;
  for v = 0 to nvars - 1 do
    let c = var_cell.(v) in
    let j = first_var.(c) in
    if j < 0 then first_var.(c) <- v
    else chains.(j).(var_row.(v) - rows.(c)) <- v
  done;
  Array.iter (fun chain -> first_var.(var_cell.(chain.(0))) <- chain.(0)) chains;
  let shift = Array.make nvars 0.0 in
  if has_blk then
    for v = 0 to nvars - 1 do
      shift.(v) <- float_of_int cell_shift.(var_cell.(v))
    done;
  (* ordering constraints: one per adjacent pair in each group; every
     variable sits in exactly one group, so m = nvars - #groups. The
     required separation accounts for the shift difference. *)
  let m = nvars - !glen in
  let b_rhs = Array.make m 0.0 in
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 2 do
        let u = vars.(k) and v = vars.(k + 1) in
        b_rhs.(!ci) <-
          float_of_int cells.(var_cell.(u)).Cell.width
          +. shift.(u) -. shift.(v);
        incr ci
      done)
    row_vars;
  let p = Array.make nvars 0.0 in
  for v = 0 to nvars - 1 do
    p.(v) <- -.(gxs.(var_cell.(v)) -. shift.(v))
  done;
  let blocks = Blocks.of_array ~nvars chains in
  { design; assignment; nvars; first_var; var_cell; var_row; row_vars;
    b_rhs; p; shift; blocks; d_split = [||] }

let lcp_rhs t =
  let n = t.nvars and m = num_constraints t in
  Vec.init (n + m) (fun i -> if i < n then t.p.(i) else -.t.b_rhs.(i - n))

let apply_q_tilde t ~lambda x =
  let out = Blocks.apply_ete t.blocks x in
  let result = Vec.scale lambda out in
  Vec.axpy 1.0 x result;
  result

let to_qp t ~lambda =
  let coo = Coo.create ~rows:t.nvars ~cols:t.nvars in
  for v = 0 to t.nvars - 1 do
    Coo.add coo v v 1.0
  done;
  (* lambda E^T E assembled from the explicit E matrix *)
  let e = Blocks.e_matrix t.blocks in
  for r = 0 to Csr.rows e - 1 do
    let entries = Csr.row_entries e r in
    List.iter
      (fun (j1, v1) ->
        List.iter
          (fun (j2, v2) -> Coo.add coo j1 j2 (lambda *. v1 *. v2))
          entries)
      entries
  done;
  Mclh_qp.Qp.make ~q_mat:(Coo.to_csr coo) ~p:t.p ~b_mat:(b_matrix t) ~b_rhs:t.b_rhs

let packed_start t =
  (* cumulative packing directly in u-space: u_first = 0 and
     u_next = max(0, u_prev + separation) satisfies B u >= b and u >= 0
     whatever the segment shifts are *)
  let x = Array.make t.nvars 0.0 in
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      let k = Array.length vars in
      if k > 0 then begin
        x.(vars.(0)) <- 0.0;
        for idx = 1 to k - 1 do
          x.(vars.(idx)) <- Float.max 0.0 (x.(vars.(idx - 1)) +. t.b_rhs.(!ci));
          incr ci
        done
      end)
    t.row_vars;
  x

(* sums each cell's subcells in ascending id order: hub first, then up
   the rows, as the chain lists them *)
let cell_positions t x =
  let n = Design.num_cells t.design in
  let acc = Array.make n 0.0 in
  for v = 0 to t.nvars - 1 do
    let c = t.var_cell.(v) in
    acc.(c) <- acc.(c) +. x.(v)
  done;
  Array.iteri
    (fun i s -> acc.(i) <- s /. float_of_int t.design.cells.(i).Cell.height)
    acc;
  acc

let subcell_mismatch t x = Blocks.mismatch t.blocks x

let placement_of t x =
  let xs = cell_positions t x in
  (* add back the per-cell shift (subcells share it) *)
  Array.iteri (fun i fv -> xs.(i) <- xs.(i) +. t.shift.(fv)) t.first_var;
  let ys = Array.map float_of_int t.assignment.rows in
  Placement.make ~xs ~ys
