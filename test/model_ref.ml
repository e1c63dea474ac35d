(* Test-only reference for [Model.build]: the historical list-based
   construction (Hashtbl segment split, [Blocks.make]),
   kept as the oracle the streaming struct-of-arrays build is pinned
   against byte for byte in [test_soa.ml]. It numbers the subcells in
   cell order first, as the historical build did, and then renumbers
   every variable by its position in the concatenated ordering groups. *)

open Mclh_core
open Mclh_linalg
open Mclh_circuit

let build (design : Design.t) (assignment : Row_assign.t) =
  let n = Design.num_cells design in
  let first_var = Array.make n 0 in
  let nvars =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      first_var.(i) <- !acc;
      acc := !acc + design.Design.cells.(i).Cell.height
    done;
    !acc
  in
  let var_cell = Array.make nvars 0 and var_row = Array.make nvars 0 in
  for i = 0 to n - 1 do
    let h = design.cells.(i).Cell.height in
    for k = 0 to h - 1 do
      var_cell.(first_var.(i) + k) <- i;
      var_row.(first_var.(i) + k) <- assignment.Row_assign.rows.(i) + k
    done
  done;
  let segments = Segments_ref.compute design in
  let cell_segment_start =
    Array.init n (fun i ->
        let c = design.cells.(i) in
        let gx = design.global.Placement.xs.(i) in
        Array.init c.Cell.height (fun k ->
            match
              Segments_ref.locate segments
                ~row:(assignment.rows.(i) + k)
                ~x:gx ~width:c.Cell.width
            with
            | Some seg -> Some seg.Segments_ref.start
            | None -> None))
  in
  let cell_shift =
    Array.init n (fun i ->
        Array.fold_left
          (fun acc -> function Some s -> max acc s | None -> acc)
          0 cell_segment_start.(i))
  in
  let shift =
    Vec.init nvars (fun v -> float_of_int cell_shift.(var_cell.(v)))
  in
  let order = Order.per_row design ~rows:assignment.rows in
  let groups = ref [] in
  Array.iteri
    (fun r ids ->
      if Array.length ids > 0 then begin
        if Segments_ref.has_blockages segments then begin
          let tbl = Hashtbl.create 4 in
          let keys = ref [] in
          Array.iter
            (fun i ->
              let k = r - assignment.rows.(i) in
              let key = cell_segment_start.(i).(k) in
              if not (Hashtbl.mem tbl key) then keys := key :: !keys;
              let prev = try Hashtbl.find tbl key with Not_found -> [] in
              Hashtbl.replace tbl key (i :: prev))
            ids;
          List.iter
            (fun key ->
              let members = List.rev (Hashtbl.find tbl key) in
              let vars =
                List.map (fun i -> first_var.(i) + (r - assignment.rows.(i))) members
              in
              groups := Array.of_list vars :: !groups)
            (List.rev !keys)
        end
        else
          groups :=
            Array.map (fun i -> first_var.(i) + (r - assignment.rows.(i))) ids
            :: !groups
      end)
    order;
  let row_vars = Array.of_list (List.rev !groups) in
  (* renumber: a variable's id is its position in the concatenated groups *)
  let new_of_old = Array.make nvars (-1) in
  let next = ref 0 in
  Array.iter
    (Array.iter (fun v ->
         new_of_old.(v) <- !next;
         incr next))
    row_vars;
  let old_of_new = Array.make nvars 0 in
  Array.iteri (fun v v' -> old_of_new.(v') <- v) new_of_old;
  let renumber vars = Array.map (fun v -> new_of_old.(v)) vars in
  let row_vars = Array.map renumber row_vars in
  let first_var = renumber first_var in
  let var_cell = Array.map (fun v -> var_cell.(v)) old_of_new in
  let var_row = Array.map (fun v -> var_row.(v)) old_of_new in
  let shift = Array.map (fun v -> shift.(v)) old_of_new in
  let m =
    Array.fold_left (fun acc vars -> acc + max 0 (Array.length vars - 1)) 0 row_vars
  in
  let b_rhs = Array.make m 0.0 in
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 2 do
        let u = vars.(k) and v = vars.(k + 1) in
        b_rhs.(!ci) <-
          float_of_int design.cells.(var_cell.(u)).Cell.width
          +. shift.(u) -. shift.(v);
        incr ci
      done)
    row_vars;
  let p =
    Vec.init nvars (fun v ->
        -.(design.global.Placement.xs.(var_cell.(v)) -. shift.(v)))
  in
  (* one chain per multi-row cell in cell order, hub (bottom row) first *)
  let var_of = Hashtbl.create nvars in
  Array.iteri (fun v c -> Hashtbl.replace var_of (c, var_row.(v)) v) var_cell;
  let chains =
    Array.to_list first_var
    |> List.mapi (fun i hub ->
           let h = design.cells.(i).Cell.height in
           Array.init h (fun k -> Hashtbl.find var_of (i, var_row.(hub) + k)))
    |> List.filter (fun chain -> Array.length chain >= 2)
  in
  let blocks = Blocks.make ~nvars chains in
  { Model.design; assignment; nvars; first_var; var_cell; var_row; row_vars;
    b_rhs; p; shift; blocks; d_split = [||] }
