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

(* the 128-bit pure-LCP fingerprint of [Decompose.shard_key] (the
   solver's exact-start test reads the same structural features) keys
   the cache directly; it is itself a hash, so the table hashes its
   first word instead of walking the boxed tuple *)
type key = Int64.t * Int64.t * int * int

module Cache = Hashtbl.Make (struct
  type t = key

  let equal ((a1, b1, c1, d1) : t) ((a2, b2, c2, d2) : t) =
    Int64.equal a1 a2 && Int64.equal b1 b2 && c1 = c2 && d1 = d2

  let hash ((h1, _, _, _) : t) = Int64.to_int h1 land max_int
end)

exception Busy

type t = {
  config : Config.t;
  obs : Obs.t option;
  cache : entry Cache.t;
  in_apply : bool Atomic.t;  (* overlapping-[apply] guard (see [try_apply]) *)
  mutable design : Design.t;
  mutable assignment : Row_assign.t;
  mutable model : Model.t;
  segments : Segments.t;  (* the design's free row segments *)
  mutable layout : Model.layout;
      (* build steps 1-2 of [model]: each cell's segment choice and
         shift, each row's cell order; a move/resize batch redoes them
         only for its touched cells and dirty rows ({!Model.patch}) *)
  mutable comp_of_var : int array;  (* [model]'s components *)
  mutable keys : key array;  (* each component's shard key *)
  mutable clean : bool array;
      (* per component: the last batch carried it over, neither planned,
         keyed nor looked up *)
  mutable stale : bool array;
      (* per component: its slice of [x]/[r]/[s] is not the cache's
         entry under its key, because a later shard of its batch with the
         same key replaced the entry; such a component is looked up even
         when clean *)
  mutable x : Vec.t;  (* previous global solution: positions, length n *)
  mutable r : Vec.t;  (* multipliers, length m *)
  mutable s : Vec.t;  (* modulus vector, length n + m *)
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
  let finite op x y =
    if not (Float.is_finite x && Float.is_finite y) then
      invalid_arg
        (Printf.sprintf "Incr.apply: %s to a non-finite position (%g, %g)" op x y)
  in
  List.iter
    (function
      | Edit.Move { cell; x; y } ->
        check "move" cell;
        finite "move" x y;
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
        finite "insert" x y;
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
(* carrying the previous solution across a rebuild                    *)

(* Reports every new variable with an old twin ov through [var v' ov]
   and every new constraint with an old twin oc through [con c' oc],
   walking the new groups. An untouched surviving cell keeps its rows
   and height, so each of its new subcells has an old twin at the same
   row offset: its old hub, or its old chain's entry at that offset. An
   old group is a run of consecutive ids owning the constraints numbered
   from its start minus its index ({!Model.group_starts}), so the old
   pair (ou, ou + 1) is a constraint exactly when both sit in one group,
   and it is number [ou - group(ou)]. Touched and inserted cells carry
   nothing. *)
let carry (old_model : Model.t) (model' : Model.t) ~old_of_new ~touched ~var
    ~con =
  let old_rows = old_model.Model.assignment.Row_assign.rows in
  let old_first = old_model.Model.first_var in
  let old_blocks = old_model.Model.blocks in
  let old_var c r =
    let oc = old_of_new.(c) in
    if oc < 0 || touched.(c) then -1
    else begin
      let k = r - old_rows.(oc) in
      if k = 0 then old_first.(oc)
      else if k < 0 then -1
      else begin
        (* a cell of one row is in no chain *)
        let j = Blocks.chain_of_var old_blocks old_first.(oc) in
        if j < 0 || k >= Blocks.chain_length old_blocks j then -1
        else Blocks.chain_var old_blocks j k
      end
    end
  in
  let starts = Model.group_starts old_model.Model.row_vars in
  (* the old group of ou, remembered from the last call: consecutive
     calls mostly stay in one group *)
  let g = ref 0 in
  let group_of ou =
    if not (starts.(!g) <= ou && ou < starts.(!g + 1)) then begin
      let lo = ref 0 and hi = ref (Array.length starts - 2) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if starts.(mid) <= ou then lo := mid else hi := mid - 1
      done;
      g := !lo
    end;
    !g
  in
  let var_cell = model'.Model.var_cell and var_row = model'.Model.var_row in
  let ci = ref 0 in
  Array.iter
    (fun vars ->
      let prev = ref (-1) in
      for k = 0 to Array.length vars - 1 do
        let v' = vars.(k) in
        let ov = old_var var_cell.(v') var_row.(v') in
        if ov >= 0 then var v' ov;
        if k > 0 then begin
          let ou = !prev in
          if ou >= 0 && ov = ou + 1 then begin
            let go = group_of ou in
            if ov < starts.(go + 1) then con !ci (ou - go)
          end;
          incr ci
        end;
        prev := ov
      done)
    model'.Model.row_vars

(* The previous solution in the new model's numbering, by index: the
   modulus vector [s0] to warm-start from, and the positions and
   multipliers a clean component keeps. Everything unmapped keeps the
   paper's plain start in [s0] and 0 in the others: touched and inserted
   cells start at their *new* target (their old modulus reflects the old
   position), unmapped constraints at 0. *)
let warm_s0 (old_model : Model.t) ~x ~r ~s (model' : Model.t) ~old_of_new
    ~touched =
  let n_old = old_model.Model.nvars and n' = model'.Model.nvars in
  let s0 = Warm_start.plain_start model' in
  let x' = Vec.zeros n' and r' = Vec.zeros (Model.num_constraints model') in
  carry old_model model' ~old_of_new ~touched
    ~var:(fun v ov ->
      s0.(v) <- s.(ov);
      x'.(v) <- x.(ov))
    ~con:(fun c oc ->
      s0.(n' + c) <- s.(n_old + oc);
      r'.(c) <- r.(oc));
  (s0, x', r')

(* ------------------------------------------------------------------ *)
(* dirty-shard re-solve                                                *)

type resolve_out = {
  shards : Decompose.shard array;  (* the shards of [need], in order *)
  found : entry option array;  (* each one's cache entry, if any *)
  r_misses : int;
  r_iter_sum : int;
  r_iter_max : int;
  r_converged : bool;
}

(* [need] lists the components to plan, key and look up, ascending; the
   others are clean and carry their slices of [rx]/[rr]/[s0] and their
   keys ([keys]) from the previous batch, so they count as hits. [s0]
   becomes the modulus vector: clean components keep their carried
   slices, and each re-solved shard reads its own slice of [s0] before
   its solve writes that slice back. The cache is only read. *)
let resolve t (model' : Model.t) ~comp_of_var ~keys ~need ~rx ~rr s0 =
  let ncomp = Array.length keys in
  let shards =
    Decompose.plan model' ~comp_of_var ~num_components:ncomp need
  in
  Array.iteri
    (fun j c -> keys.(c) <- Decompose.shard_key model' shards.(j))
    need;
  let found = Array.map (fun c -> Cache.find_opt t.cache keys.(c)) need in
  (* hits scatter from the cache; misses solve through the solver's own
     fan-out, which scatters them into the same global vectors *)
  let misses = ref [] in
  Array.iteri
    (fun j shard ->
      match found.(j) with
      | Some e ->
        Decompose.scatter_vars shard e.ex rx;
        Decompose.scatter_cons shard e.er rr;
        Decompose.scatter model' shard e.es s0
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
      ~modulus:s0
  in
  { shards;
    found;
    r_misses = Array.length misses;
    r_iter_sum = fan.Solver.total_iterations;
    r_iter_max = fan.Solver.max_iterations;
    r_converged = fan.Solver.all_converged }

(* Refreshes the cache with the live generation once the batch has
   succeeded: a hit is already in the table under its key, so only the
   misses go in, unless the table outgrew its cap and is reset, when
   every live key goes back. A clean component's key was live, so no
   miss shares it. Returns the stale flags of the new components. *)
let refresh_cache t (model' : Model.t) ~comp_of_var ~keys ~need out ~x ~r ~s =
  let ncomp = Array.length keys in
  let reset = Cache.length t.cache > max_cache_entries in
  if reset then begin
    Cache.reset t.cache;
    let is_need = Array.make ncomp false in
    Array.iter (fun c -> is_need.(c) <- true) need;
    let clean =
      Array.of_list
        (List.filter (fun c -> not is_need.(c)) (List.init ncomp Fun.id))
    in
    Array.iteri
      (fun j shard ->
        Cache.replace t.cache keys.(clean.(j)) (gather_entry model' ~x ~r ~s shard))
      (Decompose.plan model' ~comp_of_var ~num_components:ncomp clean)
  end;
  let fresh =
    Array.mapi
      (fun j c ->
        match out.found.(j) with
        | Some e ->
          if reset then Cache.replace t.cache keys.(c) e;
          e
        | None ->
          let e = gather_entry model' ~x ~r ~s out.shards.(j) in
          Cache.replace t.cache keys.(c) e;
          e)
      need
  in
  (* a miss whose entry a later miss of the same key replaced keeps its
     own slice: the next batch must scatter the cache's entry into it *)
  let stale = Array.make ncomp false in
  Array.iteri
    (fun j c -> stale.(c) <- Cache.find t.cache keys.(c) != fresh.(j))
    need;
  stale

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
  (* the flow's own build, its layout kept for the first batch *)
  let segments = Segments.compute design in
  let layout = ref None in
  let build design assignment =
    let l =
      Model.layout ~num_domains:config.Config.num_domains segments design
        assignment
    in
    layout := Some l;
    Model.assemble design assignment l
  in
  let flow = Flow.run_with ~build ~config ?obs design in
  let model = flow.Flow.model in
  let assignment = model.Model.assignment in
  let deco = Decompose.analyze model in
  let shards = deco.Decompose.shards in
  let x = flow.Flow.solver.Solver.x and r = flow.Flow.solver.Solver.r in
  let s = flow.Flow.solver.Solver.modulus in
  let cache = Cache.create 256 in
  (* seed the cache with every current shard's slice of the initial
     solution, so the first batch already hits on clean shards *)
  let keys = Array.map (Decompose.shard_key model) shards in
  let entries =
    Array.mapi
      (fun i shard ->
        let e = gather_entry model ~x ~r ~s shard in
        Cache.replace cache keys.(i) e;
        e)
      shards
  in
  { config;
    obs;
    cache;
    in_apply = Atomic.make false;
    design;
    assignment;
    model;
    segments;
    layout = Option.get !layout;
    comp_of_var = deco.Decompose.comp_of_var;
    keys;
    clean = Array.make (Array.length keys) false;
    stale = Array.mapi (fun i k -> Cache.find cache k != entries.(i)) keys;
    x;
    r;
    s;
    legal = flow.Flow.legal;
    batches = 0;
    trace =
      Obs.new_trace obs "incr/solve/delta_inf" ~capacity:Solver.trace_capacity }

let design t = t.design
let model t = t.model
let clean_components t = Array.copy t.clean
let legal t = Placement.copy t.legal
let num_batches t = t.batches
let cache_entries t = Cache.length t.cache

let busy t = Atomic.get t.in_apply

(* The model stage of a batch: the new model and its layout, its
   components, each component's key where it carries over, and the
   components to look up (ascending). A move/resize batch patches the
   session's model; a component is clean when it holds no touched cell
   and no group that lost a member. It is then a component of the old
   model, unchanged, so its key is the old one. Every component is
   numbered at its first variable, which names its old component
   through that variable's cell. A stale component is looked up all the
   same. Inserts and deletes renumber the cells: every row is laid out
   again and every component looked up. *)
let model_stage t ~patch design' assignment' ~touched touched_cells =
  if not patch then begin
    let layout' = Model.layout t.segments design' assignment' in
    let model' = Model.assemble design' assignment' layout' in
    let comp_of_var', ncomp' = Decompose.components model' in
    ( layout',
      model',
      comp_of_var',
      Array.make ncomp' (0L, 0L, 0, 0),
      Array.init ncomp' Fun.id )
  end
  else begin
    let model', layout', lost =
      Model.patch t.model t.layout design' assignment' ~touched touched_cells
    in
    let comp_of_var', ncomp' = Decompose.components model' in
    let need = Array.make ncomp' false in
    let keys' = Array.make ncomp' (0L, 0L, 0, 0) in
    let comp c = comp_of_var'.(model'.Model.first_var.(c)) in
    Array.iter (fun c -> need.(comp c) <- true) touched_cells;
    List.iter (fun c -> need.(comp c) <- true) lost;
    let next = ref 0 in
    for v = 0 to model'.Model.nvars - 1 do
      let c = comp_of_var'.(v) in
      if c = !next then begin
        incr next;
        if not need.(c) then begin
          let oc =
            t.comp_of_var.(t.model.Model.first_var.(model'.Model.var_cell.(v)))
          in
          if t.stale.(oc) then need.(c) <- true else keys'.(c) <- t.keys.(oc)
        end
      end
    done;
    let ids = ref [] in
    for c = ncomp' - 1 downto 0 do
      if need.(c) then ids := c :: !ids
    done;
    (layout', model', comp_of_var', keys', Array.of_list !ids)
  end

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
  (* only inserts and deletes renumber the cells *)
  let patch =
    not
      (List.exists
         (function Edit.Insert _ | Edit.Delete _ -> true | _ -> false)
         edits)
  in
  let touched_cells =
    let acc = ref [] in
    for c = Array.length touched - 1 downto 0 do
      if touched.(c) then acc := c :: !acc
    done;
    Array.of_list !acc
  in
  let (layout', model', comp_of_var', keys', need), model_s =
    Clock.timed (fun () ->
        model_stage t ~patch design' assignment' ~touched touched_cells)
  in
  Obs.record_span obs "incr/model" model_s;
  let (x', r', s', out), solve_s =
    Clock.timed (fun () ->
        let s0, x', r' =
          warm_s0 t.model ~x:t.x ~r:t.r ~s:t.s model' ~old_of_new ~touched
        in
        let out =
          resolve t model' ~comp_of_var:comp_of_var' ~keys:keys' ~need ~rx:x'
            ~rr:r' s0
        in
        (x', r', s0, out))
  in
  Obs.record_span obs "incr/solve" solve_s;
  let mismatch = Model.subcell_mismatch model' x' in
  let alloc, alloc_s =
    Clock.timed (fun () ->
        Tetris_alloc.run ?obs design' (Model.placement_of model' x'))
  in
  Obs.record_span obs "incr/alloc" alloc_s;
  (* the batch stands: only now is the cache written, so a batch that
     raises leaves the whole session as it was *)
  let stale, refresh_s =
    Clock.timed (fun () ->
        refresh_cache t model' ~comp_of_var:comp_of_var' ~keys:keys' ~need out
          ~x:x' ~r:r' ~s:s')
  in
  Obs.record_span obs "incr/solve" refresh_s;
  let dirty_components =
    let seen = Array.make (Array.length keys') false in
    Array.fold_left
      (fun acc c ->
        let k = comp_of_var'.(model'.Model.first_var.(c)) in
        if seen.(k) then acc
        else begin
          seen.(k) <- true;
          acc + 1
        end)
      0 touched_cells
  in
  t.design <- design';
  t.assignment <- assignment';
  t.model <- model';
  t.layout <- layout';
  t.comp_of_var <- comp_of_var';
  t.keys <- keys';
  t.clean <- Array.make (Array.length keys') true;
  Array.iter (fun c -> t.clean.(c) <- false) need;
  t.stale <- stale;
  t.x <- x';
  t.r <- r';
  t.s <- s';
  t.legal <- alloc.Tetris_alloc.placement;
  t.batches <- t.batches + 1;
  let latency_s = Clock.now () -. start in
  Obs.record_span obs "incr/total" latency_s;
  Obs.add obs "incr/touched_cells" (Array.length touched_cells);
  Obs.add obs "incr/dirty_components" dirty_components;
  Obs.add obs "incr/dirty_shards" out.r_misses;
  Obs.add obs "incr/cache_hits" (Array.length keys' - out.r_misses);
  Obs.add obs "incr/solve_iterations" out.r_iter_sum;
  Obs.gauge obs "incr/mismatch" mismatch;
  { edits = List.length edits;
    touched_cells = Array.length touched_cells;
    dirty_components;
    components = Array.length keys';
    dirty_shards = out.r_misses;
    shards = Array.length keys';
    cache_hits = Array.length keys' - out.r_misses;
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
