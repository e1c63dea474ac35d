open Mclh_circuit
open Mclh_core
open Mclh_linalg
module Obs = Mclh_obs.Obs
module Trace = Mclh_obs.Trace
module Clock = Mclh_par.Clock

type stats = {
  edits : int;
  touched_cells : int;
  dirty_components : int;
  components : int;
  dirty_shards : int;
  shards : int;
  cache_hits : int;
  solve_iterations : int;
  max_iterations : int;
  converged : bool;
  mismatch : float;
  latency_s : float;
}

(* a cached shard solution: the sub-LCP's positions, multipliers and
   final modulus in the shard's local numbering *)
type entry = { ex : Vec.t; er : Vec.t; es : Vec.t }

exception Busy

type t = {
  config : Config.t;
  obs : Obs.t option;
  cache : (Int64.t * Int64.t * int * int, entry) Hashtbl.t;
  in_apply : bool Atomic.t;  (* overlapping-[apply] guard (see [try_apply]) *)
  mutable design : Design.t;
  mutable assignment : Row_assign.t;
  mutable model : Model.t;
  mutable s : Vec.t;  (* previous global modulus vector, length n + m *)
  mutable legal : Placement.t;
  mutable batches : int;
  trace : Trace.t option;
      (* the session's one warm-start convergence trace; every re-solved
         shard's samples append to it, so it stays one bounded buffer for
         the session's lifetime *)
}

(* the cache never evicts individual entries (old solutions keep paying
   off when edits are reverted); past this size the whole table is reset
   and reseeded with the live generation, bounding memory on very long
   sessions *)
let max_cache_entries = 8192

(* ------------------------------------------------------------------ *)
(* shard fingerprint                                                   *)

(* the 128-bit pure-LCP fingerprint lives in [Decompose.shard_key] (the
   solver's exact-start test reads the same structural features); the
   cache is keyed on it directly *)
let shard_key = Decompose.shard_key

let gather_entry (model : Model.t) ~x ~r ~s (shard : Decompose.shard) =
  { ex = Array.map (fun v -> x.(v)) shard.Decompose.vars;
    er = Array.map (fun c -> r.(c)) shard.Decompose.cons;
    es = Decompose.restrict model shard s }

(* ------------------------------------------------------------------ *)
(* edit application                                                    *)

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
   touched flags (moved / resized / inserted) in new numbering.

   A batch of moves and resizes only patches: it keeps the numbering, the
   netlist and every unresized [Cell.t], and copies the two placement
   arrays. Deletions and insertions renumber, which rebuilds the cell
   table and the netlist. *)
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
  if !num_inserts = 0 && not (Array.exists Fun.id deleted) then begin
    let cells' =
      Array.mapi
        (fun id (c : Cell.t) ->
          if widths.(id) = c.Cell.width then c
          else
            Cell.make ~id ~name:c.Cell.name ~width:widths.(id)
              ~height:c.Cell.height ?bottom_rail:c.Cell.bottom_rail
              ?region:c.Cell.region ())
        design.Design.cells
    in
    let design' =
      Design.make ~blockages:design.Design.blockages ~name:design.Design.name
        ~chip:design.Design.chip ~cells:cells'
        ~global:(Placement.make ~xs:gx ~ys:gy)
        ~nets:design.Design.nets ()
    in
    (design', Array.init n Fun.id, touched)
  end
  else
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

(* ------------------------------------------------------------------ *)
(* warm start across a model rebuild                                   *)

(* Carry the previous modulus vector to the new model's numbering, by
   index. An untouched surviving cell keeps its rows and height, so each
   of its new subcells has an old twin at the same row offset. An old
   group is a run of consecutive ids owning the constraints numbered
   from its start minus its index ({!Model.group_starts}), so the old
   pair (ou, ou + 1) is a constraint exactly when both sit in one group,
   and it is number [ou - group(ou)]. Everything unmapped keeps the
   paper's plain start: touched and inserted cells start at their *new*
   target (their old modulus reflects the old position), unmapped
   constraints at 0. *)
let warm_s0 (old_model : Model.t) old_s (model' : Model.t) ~old_of_new
    ~touched =
  let n_old = old_model.Model.nvars in
  let n' = model'.Model.nvars in
  let old_cells = old_model.Model.design.Design.cells in
  let old_rows = old_model.Model.assignment.Row_assign.rows in
  (* old cell c's subcells, bottom row up, are the slots
     [sub_base.(c), sub_base.(c + 1)) of [old_var] *)
  let nc_old = Array.length old_cells in
  let sub_base = Array.make (nc_old + 1) 0 in
  for c = 0 to nc_old - 1 do
    sub_base.(c + 1) <- sub_base.(c) + old_cells.(c).Cell.height
  done;
  let old_var = Array.make n_old 0 in
  for v = 0 to n_old - 1 do
    let c = old_model.Model.var_cell.(v) in
    old_var.(sub_base.(c) + old_model.Model.var_row.(v) - old_rows.(c)) <- v
  done;
  let old_group = Array.make n_old 0 in
  Array.iteri
    (fun g vars -> Array.iter (fun v -> old_group.(v) <- g) vars)
    old_model.Model.row_vars;
  let s0 = Warm_start.plain_start model' in
  (* the old variable of every new one, -1 where nothing carries *)
  let carried = Array.make n' (-1) in
  for v' = 0 to n' - 1 do
    let c = model'.Model.var_cell.(v') in
    let oc = old_of_new.(c) in
    if oc >= 0 && not touched.(c) then begin
      let k = model'.Model.var_row.(v') - old_rows.(oc) in
      if k >= 0 && k < sub_base.(oc + 1) - sub_base.(oc) then begin
        let ov = old_var.(sub_base.(oc) + k) in
        carried.(v') <- ov;
        s0.(v') <- old_s.(ov)
      end
    end
  done;
  let ci = ref n' in
  Array.iter
    (fun vars ->
      for k = 0 to Array.length vars - 2 do
        let ou = carried.(vars.(k)) in
        if ou >= 0 && carried.(vars.(k + 1)) = ou + 1
           && old_group.(ou + 1) = old_group.(ou)
        then s0.(!ci) <- old_s.(n_old + ou - old_group.(ou));
        incr ci
      done)
    model'.Model.row_vars;
  s0

(* ------------------------------------------------------------------ *)
(* dirty-shard re-solve                                                *)

type resolve_out = {
  rx : Vec.t;
  rr : Vec.t;
  rs : Vec.t;
  r_hits : int;
  r_misses : int;
  r_iter_sum : int;
  r_iter_max : int;
  r_converged : bool;
}

let resolve t (model' : Model.t) shards s0 =
  let n' = model'.Model.nvars and m' = Model.num_constraints model' in
  let keys = Array.map (shard_key model') shards in
  let found = Array.map (Hashtbl.find_opt t.cache) keys in
  (* hits scatter from the cache; misses solve through the solver's own
     fan-out, which scatters them into the same global vectors *)
  let rx = Vec.zeros n' and rr = Vec.zeros m' in
  let rs = Vec.zeros (n' + m') in
  let misses = ref [] in
  Array.iteri
    (fun i shard ->
      match found.(i) with
      | Some e ->
        Decompose.scatter_vars shard e.ex rx;
        Decompose.scatter_cons shard e.er rr;
        Decompose.scatter model' shard e.es rs
      | None -> misses := shard :: !misses)
    shards;
  let misses = Array.of_list (List.rev !misses) in
  (* [solve_shards] hands the per-shard traces over after fan-in, in
     shard order *)
  let on_trace =
    Option.map
      (fun session _ ~iterations:_ tr ->
        Array.iter (Trace.record session) (Trace.to_array tr))
      t.trace
  in
  let fan =
    Solver.solve_shards ?on_trace ~s0 t.config model' misses ~x:rx ~r:rr
      ~modulus:rs
  in
  (* refresh the cache with the live generation: a hit is already in the
     table under its key, so only the misses go in, unless the table
     outgrew its cap and is reset, when every live key goes back *)
  let reset = Hashtbl.length t.cache > max_cache_entries in
  if reset then Hashtbl.reset t.cache;
  Array.iteri
    (fun i key ->
      match found.(i) with
      | Some e -> if reset then Hashtbl.replace t.cache key e
      | None ->
        Hashtbl.replace t.cache key
          (gather_entry model' ~x:rx ~r:rr ~s:rs shards.(i)))
    keys;
  { rx;
    rr;
    rs;
    r_hits = Array.length shards - Array.length misses;
    r_misses = Array.length misses;
    r_iter_sum = fan.Solver.total_iterations;
    r_iter_max = fan.Solver.max_iterations;
    r_converged = fan.Solver.all_converged }

(* ------------------------------------------------------------------ *)
(* session                                                             *)

let create ?(config = Config.default) ?obs design =
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Incr.create: " ^ msg));
  if Array.length design.Design.regions > 0 then
    invalid_arg
      "Incr.create: fenced designs are not supported; create one session \
       per territory";
  let flow = Flow.run ~config ?obs design in
  let model = flow.Flow.model in
  let t =
    { config;
      obs;
      cache = Hashtbl.create 256;
      in_apply = Atomic.make false;
      design;
      assignment = model.Model.assignment;
      model;
      s = flow.Flow.solver.Solver.modulus;
      legal = flow.Flow.legal;
      batches = 0;
      trace =
        Obs.new_trace obs "incr/solve/delta_inf" ~capacity:Solver.trace_capacity }
  in
  (* seed the cache with every current shard's slice of the initial
     solution, so the first batch already hits on clean shards *)
  let x = flow.Flow.solver.Solver.x and r = flow.Flow.solver.Solver.r in
  Array.iter
    (fun shard ->
      Hashtbl.replace t.cache (shard_key model shard)
        (gather_entry model ~x ~r ~s:t.s shard))
    (Decompose.analyze model).Decompose.shards;
  t

let design t = t.design
let legal t = Placement.copy t.legal
let num_batches t = t.batches
let cache_entries t = Hashtbl.length t.cache

let busy t = Atomic.get t.in_apply

let apply_locked t edits =
  let start = Clock.now () in
  let obs = t.obs in
  Obs.incr obs "incr/batches";
  Obs.add obs "incr/edits" (List.length edits);
  let (design', old_of_new, touched, assignment'), assign_s =
    Clock.timed (fun () ->
        let design', old_of_new, touched = apply_edits t.design edits in
        (* touched cells re-assign; everything else keeps its row (the
           assignment is per-cell independent, so this equals a cold
           [Row_assign.assign] of the new design exactly) *)
        let n' = Design.num_cells design' in
        let rows = Array.make n' 0 in
        for c = 0 to n' - 1 do
          let oc = old_of_new.(c) in
          if oc >= 0 && not touched.(c) then
            rows.(c) <- t.assignment.Row_assign.rows.(oc)
          else rows.(c) <- Row_assign.assign_cell design' c
        done;
        let assignment' =
          { Row_assign.rows;
            y_displacement = Row_assign.y_displacement design' rows }
        in
        (design', old_of_new, touched, assignment'))
  in
  Obs.record_span obs "incr/assign" assign_s;
  let model', model_s = Clock.timed (fun () -> Model.build design' assignment') in
  let deco', decomp_s = Clock.timed (fun () -> Decompose.analyze model') in
  let shards' = deco'.Decompose.shards in
  Obs.record_span obs "incr/model" (model_s +. decomp_s);
  let touched_cells =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 touched
  in
  let dirty_components =
    let seen = Array.make deco'.Decompose.num_components false in
    let count = ref 0 in
    for v = 0 to model'.Model.nvars - 1 do
      if touched.(model'.Model.var_cell.(v)) then begin
        let c = deco'.Decompose.comp_of_var.(v) in
        if not seen.(c) then begin
          seen.(c) <- true;
          incr count
        end
      end
    done;
    !count
  in
  let out, solve_s =
    Clock.timed (fun () ->
        let s0 = warm_s0 t.model t.s model' ~old_of_new ~touched in
        resolve t model' shards' s0)
  in
  Obs.record_span obs "incr/solve" solve_s;
  let mismatch = Model.subcell_mismatch model' out.rx in
  let alloc, alloc_s =
    Clock.timed (fun () ->
        Tetris_alloc.run ?obs design' (Model.placement_of model' out.rx))
  in
  Obs.record_span obs "incr/alloc" alloc_s;
  t.design <- design';
  t.assignment <- assignment';
  t.model <- model';
  t.s <- out.rs;
  t.legal <- alloc.Tetris_alloc.placement;
  t.batches <- t.batches + 1;
  let latency_s = Clock.now () -. start in
  Obs.record_span obs "incr/total" latency_s;
  Obs.add obs "incr/touched_cells" touched_cells;
  Obs.add obs "incr/dirty_components" dirty_components;
  Obs.add obs "incr/dirty_shards" out.r_misses;
  Obs.add obs "incr/cache_hits" out.r_hits;
  Obs.add obs "incr/solve_iterations" out.r_iter_sum;
  Obs.gauge obs "incr/mismatch" mismatch;
  { edits = List.length edits;
    touched_cells;
    dirty_components;
    components = deco'.Decompose.num_components;
    dirty_shards = out.r_misses;
    shards = Array.length shards';
    cache_hits = out.r_hits;
    solve_iterations = out.r_iter_sum;
    max_iterations = out.r_iter_max;
    converged = out.r_converged;
    mismatch;
    latency_s }

(* The session's mutable state (design/model/modulus/cache) is updated in
   place: two overlapping [apply] calls would interleave those writes and
   corrupt the session. The restriction used to live only in the mli; a
   threaded host (the [Mclh_serve] daemon) needs it enforced, so entry is
   guarded by an atomic flag — the loser gets a typed rejection instead of
   silent corruption. *)
let try_apply t edits =
  if not (Atomic.compare_and_set t.in_apply false true) then Error `Busy
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.in_apply false)
      (fun () -> Ok (apply_locked t edits))

let apply t edits =
  match try_apply t edits with Ok stats -> stats | Error `Busy -> raise Busy
