(* Test-only reference for two stages of [Mclh_incr.Incr.apply]: the
   edit application that rebuilt every [Cell.t] and the netlist on every
   batch, and the warm start that carried the previous modulus vector
   through two tuple-keyed Hashtbls, kept verbatim ([constraint_pairs]
   was [Decompose.constraint_pairs]). [Incr.apply_edits] must give an
   equal design, map and touched flags, and [Incr.warm_s0] the same
   start vector bit for bit. *)

open Mclh_circuit
open Mclh_core
module Edit = Mclh_incr.Edit

(* constraint id -> (left, right) global variable pair, in build order *)
let constraint_pairs (model : Model.t) =
  Array.map (fun v -> (v, v + 1)) (Model.constraint_left model)

let insert_cell ~id ~width ~height ~y (chip : Chip.t) =
  let bottom_rail =
    if height mod 2 = 1 then None
    else begin
      (* even-height cells need a designed rail: adopt the rail of the
         nearest in-range row, so the insertion point admits the cell *)
      let max_row = chip.Chip.num_rows - height in
      if max_row < 0 then
        invalid_arg "Incr.apply: inserted cell is taller than the chip";
      let r = int_of_float (Float.round y) in
      let r = if r < 0 then 0 else if r > max_row then max_row else r in
      Some (Chip.bottom_rail chip r)
    end
  in
  Cell.make ~id ~width ~height ?bottom_rail ()

(* One batch of edits against [design]. All cell ids refer to the
   pre-batch numbering; modifications apply first, then deletions compact
   ids and insertions append after the survivors. Returns the new design,
   [old_of_new] (new cell id -> pre-batch id, -1 for inserts) and the
   touched flags (moved / resized / inserted) in new numbering. *)
let apply_edits (design : Design.t) edits =
  let n = Design.num_cells design in
  let deleted = Array.make n false in
  let touched = Array.make n false in
  let widths = Array.init n (fun i -> design.Design.cells.(i).Cell.width) in
  let gx = Array.copy design.Design.global.Placement.xs in
  let gy = Array.copy design.Design.global.Placement.ys in
  let inserts = ref [] and num_inserts = ref 0 in
  let check op c =
    if c < 0 || c >= n then
      invalid_arg
        (Printf.sprintf "Incr.apply: %s references cell %d (design has %d cells)"
           op c n);
    if deleted.(c) then
      invalid_arg
        (Printf.sprintf
           "Incr.apply: %s targets cell %d, already deleted in this batch" op c)
  in
  List.iter
    (function
      | Edit.Move { cell; x; y } ->
        check "move" cell;
        gx.(cell) <- x;
        gy.(cell) <- y;
        touched.(cell) <- true
      | Edit.Resize { cell; width } ->
        check "resize" cell;
        if width < 1 then invalid_arg "Incr.apply: resize width must be >= 1";
        widths.(cell) <- width;
        touched.(cell) <- true
      | Edit.Delete { cell } ->
        check "delete" cell;
        deleted.(cell) <- true
      | Edit.Insert { width; height; x; y } ->
        if width < 1 || height < 1 then
          invalid_arg "Incr.apply: insert dimensions must be >= 1";
        inserts := (width, height, x, y) :: !inserts;
        incr num_inserts)
    edits;
  let inserts = Array.of_list (List.rev !inserts) in
  let new_of_old = Array.make n (-1) in
  let survivors = ref 0 in
  for i = 0 to n - 1 do
    if not deleted.(i) then begin
      new_of_old.(i) <- !survivors;
      incr survivors
    end
  done;
  let survivors = !survivors in
  let n' = survivors + !num_inserts in
  if n' = 0 then invalid_arg "Incr.apply: the batch deletes every cell";
  let old_of_new = Array.make n' (-1) in
  for i = 0 to n - 1 do
    if new_of_old.(i) >= 0 then old_of_new.(new_of_old.(i)) <- i
  done;
  let cells' =
    Array.init n' (fun id ->
        let oc = old_of_new.(id) in
        if oc >= 0 then
          let c = design.Design.cells.(oc) in
          Cell.make ~id ~name:c.Cell.name ~width:widths.(oc)
            ~height:c.Cell.height ?bottom_rail:c.Cell.bottom_rail
            ?region:c.Cell.region ()
        else
          let w, h, _, y = inserts.(id - survivors) in
          insert_cell ~id ~width:w ~height:h ~y design.Design.chip)
  in
  let coord proj =
    Array.init n' (fun id ->
        let oc = old_of_new.(id) in
        if oc >= 0 then (fst proj).(oc)
        else (snd proj) inserts.(id - survivors))
  in
  let xs = coord (gx, fun (_, _, x, _) -> x) in
  let ys = coord (gy, fun (_, _, _, y) -> y) in
  let touched' =
    Array.init n' (fun id ->
        let oc = old_of_new.(id) in
        if oc >= 0 then touched.(oc) else true)
  in
  let nets = ref [] in
  Netlist.iter design.Design.nets (fun _ pins ->
      let kept =
        Array.to_list pins
        |> List.filter_map (fun (p : Netlist.pin) ->
               let nc = new_of_old.(p.Netlist.cell) in
               if nc < 0 then None else Some { p with Netlist.cell = nc })
      in
      if kept <> [] then nets := Array.of_list kept :: !nets);
  let nets' = Netlist.make ~num_cells:n' (List.rev !nets) in
  let design' =
    Design.make ~blockages:design.Design.blockages ~name:design.Design.name
      ~chip:design.Design.chip ~cells:cells'
      ~global:(Placement.make ~xs ~ys)
      ~nets:nets' ()
  in
  (design', old_of_new, touched')

(* Carry the previous modulus vector to the new model's numbering.
   Variables map by (pre-batch cell id, row) identity; constraints by
   their (left, right) variable-identity pair. Everything unmapped keeps
   the paper's plain start: touched cells start at their *new* target
   (their old modulus reflects the old position), unmapped constraints
   at 0. *)
let warm_s0 (old_model : Model.t) old_s (model' : Model.t) ~old_of_new
    ~touched =
  let n_old = old_model.Model.nvars in
  let n' = model'.Model.nvars in
  let old_var = Hashtbl.create (2 * n_old) in
  for v = 0 to n_old - 1 do
    Hashtbl.replace old_var
      (old_model.Model.var_cell.(v), old_model.Model.var_row.(v))
      v
  done;
  let old_con = Hashtbl.create 256 in
  Array.iteri
    (fun i (u, v) ->
      Hashtbl.replace old_con
        ( (old_model.Model.var_cell.(u), old_model.Model.var_row.(u)),
          (old_model.Model.var_cell.(v), old_model.Model.var_row.(v)) )
        i)
    (constraint_pairs old_model);
  (* identity of a new variable in pre-batch terms; None for inserted or
     touched cells *)
  let ident v' =
    let c = model'.Model.var_cell.(v') in
    if touched.(c) then None
    else
      let oc = old_of_new.(c) in
      if oc < 0 then None else Some (oc, model'.Model.var_row.(v'))
  in
  let s0 = Warm_start.plain_start model' in
  for v' = 0 to n' - 1 do
    match ident v' with
    | None -> ()
    | Some key -> (
      match Hashtbl.find_opt old_var key with
      | Some ov -> s0.(v') <- old_s.(ov)
      | None -> ())
  done;
  Array.iteri
    (fun i (u', v') ->
      match (ident u', ident v') with
      | Some ku, Some kv -> (
        match Hashtbl.find_opt old_con (ku, kv) with
        | Some oc -> s0.(n' + i) <- old_s.(n_old + oc)
        | None -> ())
      | _ -> ())
    (constraint_pairs model');
  s0

