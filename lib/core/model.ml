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

(* ---------- the three build steps ---------- *)

type layout = {
  segments : Segments.t;
  sub_base : int array;
      (* cell i's subcells, bottom row up, are the slots of [seg_of_sub]
         from [sub_base.(i)]; empty without blockages *)
  seg_of_sub : int array;
      (* step 1: each subcell's chosen segment start, -1 when its row has
         no segment; empty without blockages *)
  cell_shift : int array;  (* step 1: the rightmost of those starts *)
  row_start : int array;
      (* row r's cells are the slots [row_start.(r), row_start.(r + 1))
         of [row_order] *)
  row_order : int array;
      (* step 2: each row's cells by (global x, cell id); after
         [assemble], split into segment groups in place (the model's
         [var_cell]) *)
}

(* step 1 for cell [i]: a multi-row cell picks a segment in every
   spanned row and is measured from the rightmost of their left walls,
   so all its subcells share one shift and E u = 0 is preserved *)
let choose_segment l (design : Design.t) (assignment : Row_assign.t) i =
  let c = design.cells.(i) in
  let gx = design.global.Placement.xs.(i) in
  let row = assignment.Row_assign.rows.(i) in
  let sb = l.sub_base.(i) in
  let sh = ref 0 in
  for k = 0 to c.Cell.height - 1 do
    let start =
      Segments.locate l.segments ~row:(row + k) ~x:gx ~width:c.Cell.width
    in
    l.seg_of_sub.(sb + k) <- start;
    if start > !sh then sh := start
  done;
  l.cell_shift.(i) <- !sh

(* step 2 for the [len] cells of [order] from [base]: (global x, cell
   id) is a total order, so any sort gives the same bits *)
let sort_cells (gxs : float array) order base len =
  if len > 1 then begin
    let cmp ca cb =
      let c = compare gxs.(ca) gxs.(cb) in
      if c <> 0 then c else compare ca cb
    in
    let tmp = Array.sub order base len in
    Array.sort cmp tmp;
    Array.blit tmp 0 order base len
  end

let order_row l (design : Design.t) r =
  sort_cells design.global.Placement.xs l.row_order l.row_start.(r)
    (l.row_start.(r + 1) - l.row_start.(r))

let layout ?(num_domains = 1) segments (design : Design.t)
    (assignment : Row_assign.t) =
  let n = Design.num_cells design in
  let cells = design.cells in
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
  let has_blk = Segments.has_blockages segments in
  let sub_base = if has_blk then Array.make n 0 else [||] in
  if has_blk then
    for i = 1 to n - 1 do
      sub_base.(i) <- sub_base.(i - 1) + cells.(i - 1).Cell.height
    done;
  (* bucket the cells per spanned row with a counting sort; each row is
     then sorted in place by (global x, cell id), the total order
     [Order.per_row] derives from its per-row lists *)
  let row_order = Array.make nvars 0 in
  let cursor = Array.sub row_start 0 num_rows in
  for i = 0 to n - 1 do
    for r = rows.(i) to rows.(i) + cells.(i).Cell.height - 1 do
      row_order.(cursor.(r)) <- i;
      cursor.(r) <- cursor.(r) + 1
    done
  done;
  let l =
    { segments;
      sub_base;
      seg_of_sub = (if has_blk then Array.make nvars (-1) else [||]);
      cell_shift = Array.make n 0;
      row_start;
      row_order }
  in
  if has_blk then
    iter_chunks ~num_domains n (fun lo hi ->
        for i = lo to hi - 1 do
          choose_segment l design assignment i
        done);
  iter_chunks ~num_domains num_rows (fun lo hi ->
      for r = lo to hi - 1 do
        order_row l design r
      done);
  l

(* step 3; [reuse = Some (prev, same)] copies every row [same] marks from
   [prev] ({!patch}) *)
let assemble_rows reuse (design : Design.t) (assignment : Row_assign.t) l =
  let n = Design.num_cells design in
  let cells = design.cells in
  let gxs = design.global.Placement.xs in
  let rows = assignment.Row_assign.rows in
  let num_rows = design.chip.Chip.num_rows in
  let row_start = l.row_start in
  let nvars = row_start.(num_rows) in
  let has_blk = Segments.has_blockages l.segments in
  let sub_base = l.sub_base and seg_of_sub = l.seg_of_sub in
  (* a variable's id is its final position, so [var_cell] is the ordered
     rows themselves, split into groups in place below *)
  let var_cell = l.row_order in
  (* what a reused row copies: the previous model's groups, variables
     ([prev_rs]) and groups ([prev_g]) per row, its shifts, linear terms
     and separations *)
  let same, prev_groups, prev_rs, prev_g, prev_shift, prev_p, prev_b =
    match reuse with
    | None -> ([||], [||], [||], [||], [||], [||], [||])
    | Some ((prev : t), same) ->
      let prev_rs = Array.make (num_rows + 1) 0 in
      let prev_g = Array.make (num_rows + 1) 0 in
      Array.iter
        (fun vars ->
          let r = prev.var_row.(vars.(0)) + 1 in
          prev_rs.(r) <- prev_rs.(r) + Array.length vars;
          prev_g.(r) <- prev_g.(r) + 1)
        prev.row_vars;
      for r = 0 to num_rows - 1 do
        prev_rs.(r + 1) <- prev_rs.(r + 1) + prev_rs.(r);
        prev_g.(r + 1) <- prev_g.(r + 1) + prev_g.(r)
      done;
      (same, prev.row_vars, prev_rs, prev_g, prev.shift, prev.p, prev.b_rhs)
  in
  let reused r = Array.length same > 0 && same.(r) in
  (* groups: one per nonempty row; under blockages a row splits into one
     group per chosen segment, ordered by first appearance in x order
     (exactly the historical Hashtbl-based split). The split is a stable
     partition of the row's range, so every group is an ascending run of
     consecutive ids and the groups concatenate to [0, nvars). Row r's
     groups are [g_first.(r), g_first.(r + 1)). *)
  let gcap = ref (max 1 num_rows) and glen = ref 0 in
  let gbuf = ref (Array.make !gcap [||]) in
  let push vars =
    if !glen = !gcap then begin
      let grown = Array.make (2 * !gcap) [||] in
      Array.blit !gbuf 0 grown 0 !glen;
      gbuf := grown;
      gcap := 2 * !gcap
    end;
    !gbuf.(!glen) <- vars;
    incr glen
  in
  let push_group start len = push (Array.init len (fun k -> start + k)) in
  let g_first = Array.make (num_rows + 1) 0 in
  (* scratch reused across rows: distinct keys (first-appearance order),
     their member counts and fill cursors, each member's group and the
     partitioned row *)
  let keybuf = ref [||] and cntbuf = ref [||] in
  let grpbuf = ref [||] and rowbuf = ref [||] in
  for r = 0 to num_rows - 1 do
    g_first.(r) <- !glen;
    let base = row_start.(r) in
    let len = row_start.(r + 1) - base in
    if reused r then begin
      (* the previous model's groups, already split, moved to the new ids *)
      let d = base - prev_rs.(r) in
      for g = prev_g.(r) to prev_g.(r + 1) - 1 do
        let vars = prev_groups.(g) in
        push (if d = 0 then vars else Array.map (fun v -> v + d) vars)
      done
    end
    else if len > 0 && not has_blk then push_group base len
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
  g_first.(num_rows) <- !glen;
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
  (* row by row: the shifts, then the linear terms [-(x' - shift)], then
     the ordering constraints, one per adjacent pair in each group (every
     variable sits in exactly one group, so m = nvars - #groups) whose
     required separation accounts for the shift difference. Group g's
     pair (v, v + 1) is constraint v - g ({!group_starts}). A reused row
     copies all three. *)
  let shift = Array.make nvars 0.0 in
  let p = Array.make nvars 0.0 in
  let b_rhs = Array.make (nvars - !glen) 0.0 in
  for r = 0 to num_rows - 1 do
    let base = row_start.(r) in
    let len = row_start.(r + 1) - base in
    let c0 = base - g_first.(r) in
    if reused r then begin
      Array.blit prev_shift prev_rs.(r) shift base len;
      Array.blit prev_p prev_rs.(r) p base len;
      Array.blit prev_b (prev_rs.(r) - prev_g.(r)) b_rhs c0
        (len - (g_first.(r + 1) - g_first.(r)))
    end
    else begin
      if has_blk then
        for v = base to base + len - 1 do
          shift.(v) <- float_of_int l.cell_shift.(var_cell.(v))
        done;
      for v = base to base + len - 1 do
        p.(v) <- -.(gxs.(var_cell.(v)) -. shift.(v))
      done;
      for g = g_first.(r) to g_first.(r + 1) - 1 do
        let vars = row_vars.(g) in
        for k = 0 to Array.length vars - 2 do
          let u = vars.(k) and v = vars.(k + 1) in
          b_rhs.(u - g) <-
            float_of_int cells.(var_cell.(u)).Cell.width
            +. shift.(u) -. shift.(v)
        done
      done
    end
  done;
  let blocks = Blocks.of_array ~nvars chains in
  { design; assignment; nvars; first_var; var_cell; var_row; row_vars;
    b_rhs; p; shift; blocks; d_split = [||] }

let assemble design assignment l = assemble_rows None design assignment l

(* the cold build: all three steps, with nothing to reuse *)
let build ?(num_domains = 1) design assignment =
  assemble design assignment
    (layout ~num_domains (Segments.compute design) design assignment)

(* ---------- patching steps 1-2 across a move/resize batch ---------- *)

(* the dirty rows: the rows touched cells leave or enter *)
let dirty_rows (design : Design.t) ~old_rows ~rows' touched_cells =
  let dirty = Array.make design.Design.chip.Chip.num_rows false in
  Array.iter
    (fun c ->
      for k = 0 to design.Design.cells.(c).Cell.height - 1 do
        dirty.(old_rows.(c) + k) <- true;
        dirty.(rows'.(c) + k) <- true
      done)
    touched_cells;
  dirty

(* The untouched cells that shared an ordering group with a touched cell
   before the batch, read from the old layout: their group lost a
   member. A group is a row's cells on one segment; a touched cell's old
   rows are dirty. *)
let lost_neighbours l ~old_rows (design : Design.t) ~touched ~dirty
    touched_cells =
  let blk = Segments.has_blockages l.segments in
  let seg c r =
    if blk then l.seg_of_sub.(l.sub_base.(c) + r - old_rows.(c)) else 0
  in
  let lost = ref [] in
  Array.iteri
    (fun r is_dirty ->
      if is_dirty then
        Array.iter
          (fun c ->
            if old_rows.(c) <= r
               && r < old_rows.(c) + design.Design.cells.(c).Cell.height
            then begin
              let key = seg c r in
              for idx = l.row_start.(r) to l.row_start.(r + 1) - 1 do
                let u = l.row_order.(idx) in
                if not touched.(u) && seg u r = key then lost := u :: !lost
              done
            end)
          touched_cells)
    dirty;
  !lost

(* Steps 1-2 from the old layout, whose [row_order] is the old model's
   [var_cell]: the touched cells choose their segments again, and each
   dirty row is re-sorted from its old cells without the touched ones
   plus the touched cells now in it. Every other row is copied as the
   old model split it into groups, which [assemble] leaves as it is. The
   cell numbering and the heights are the old ones, so [sub_base] and
   the variable count are too. The old layout is not written to. *)
let patch_layout l ~old_rows (design' : Design.t) (assignment' : Row_assign.t)
    ~touched ~dirty touched_cells =
  let cells = design'.Design.cells in
  let rows' = assignment'.Row_assign.rows in
  let num_rows = design'.Design.chip.Chip.num_rows in
  let l =
    if not (Segments.has_blockages l.segments) then l
    else begin
      let l =
        { l with
          seg_of_sub = Array.copy l.seg_of_sub;
          cell_shift = Array.copy l.cell_shift }
      in
      Array.iter (choose_segment l design' assignment') touched_cells;
      l
    end
  in
  let row_start = Array.make (num_rows + 1) 0 in
  for r = 0 to num_rows - 1 do
    row_start.(r + 1) <- l.row_start.(r + 1) - l.row_start.(r)
  done;
  Array.iter
    (fun c ->
      for k = 1 to cells.(c).Cell.height do
        let r = old_rows.(c) + k and r' = rows'.(c) + k in
        row_start.(r) <- row_start.(r) - 1;
        row_start.(r') <- row_start.(r') + 1
      done)
    touched_cells;
  for r = 0 to num_rows - 1 do
    row_start.(r + 1) <- row_start.(r + 1) + row_start.(r)
  done;
  let old_order = l.row_order in
  let row_order = Array.make (Array.length old_order) 0 in
  let l' = { l with row_start; row_order } in
  for r = 0 to num_rows - 1 do
    let lo = l.row_start.(r) and hi = l.row_start.(r + 1) in
    if not dirty.(r) then Array.blit old_order lo row_order row_start.(r) (hi - lo)
    else begin
      let pos = ref row_start.(r) in
      for idx = lo to hi - 1 do
        let c = old_order.(idx) in
        if not touched.(c) then begin
          row_order.(!pos) <- c;
          incr pos
        end
      done;
      Array.iter
        (fun c ->
          if rows'.(c) <= r && r < rows'.(c) + cells.(c).Cell.height then begin
            row_order.(!pos) <- c;
            incr pos
          end)
        touched_cells;
      order_row l' design' r
    end
  done;
  l'

let patch (prev : t) l design' assignment' ~touched touched_cells =
  let old_rows = prev.assignment.Row_assign.rows in
  let dirty =
    dirty_rows design' ~old_rows ~rows':assignment'.Row_assign.rows touched_cells
  in
  let lost = lost_neighbours l ~old_rows design' ~touched ~dirty touched_cells in
  let l' = patch_layout l ~old_rows design' assignment' ~touched ~dirty touched_cells in
  (* the rows that are not dirty are [prev]'s *)
  let model' =
    assemble_rows (Some (prev, Array.map not dirty)) design' assignment' l'
  in
  (model', l', lost)

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
