open Mclh_circuit
module Obs = Mclh_obs.Obs

type territory_stats = {
  name : string;
  cells : int;
  iterations : int;
  converged : bool;
  delta_inf : float;
  mismatch : float;
  components : int;
  illegal_before : int;
  relocated : int;
  over_subscribed : bool;
  evicted : int;
  unplaced : int list;
}

type stats = {
  territories : int;
  per_territory : territory_stats list;
}

let territory_of_flow ?(over_subscribed = false) ?(evicted = 0)
    ?(unplaced = []) name cells (result : Flow.result) =
  { name;
    cells;
    iterations = result.Flow.solver.Solver.iterations;
    converged = result.Flow.solver.Solver.converged;
    delta_inf = result.Flow.solver.Solver.delta_inf;
    mismatch = result.Flow.solver.Solver.mismatch;
    components = result.Flow.solver.Solver.components;
    illegal_before = result.Flow.alloc.Tetris_alloc.illegal_before;
    relocated = result.Flow.alloc.Tetris_alloc.relocated;
    over_subscribed;
    evicted;
    unplaced }

(* ---- aggregation over territories (what a fenced run reports) ---- *)

let max_iterations stats =
  List.fold_left (fun acc t -> max acc t.iterations) 0 stats.per_territory

let all_converged stats =
  List.for_all (fun t -> t.converged) stats.per_territory

let max_delta_inf stats =
  List.fold_left
    (fun acc t ->
      (* a nan delta (divergence guard) must survive the max *)
      if Float.is_nan t.delta_inf || Float.is_nan acc then Float.nan
      else Float.max acc t.delta_inf)
    0.0 stats.per_territory

let max_mismatch stats =
  List.fold_left (fun acc t -> Float.max acc t.mismatch) 0.0 stats.per_territory

let total_illegal stats =
  List.fold_left (fun acc t -> acc + t.illegal_before) 0 stats.per_territory

let total_relocated stats =
  List.fold_left (fun acc t -> acc + t.relocated) 0 stats.per_territory

let total_evicted stats =
  List.fold_left (fun acc t -> acc + t.evicted) 0 stats.per_territory

let over_subscribed_territories stats =
  List.filter (fun t -> t.over_subscribed) stats.per_territory
  |> List.map (fun t -> t.name)

let total_unplaced stats =
  List.concat_map (fun t -> t.unplaced) stats.per_territory
  |> List.sort_uniq compare

(* sub-design for one territory: the listed cells (renumbered, region
   membership erased — the territory's geometry is enforced by blockages)
   with the given extra obstacles *)
let sub_design (design : Design.t) ~label ~cell_ids ~extra_blockages =
  let cells =
    Array.of_list
      (List.mapi
         (fun new_id old_id ->
           let c = design.Design.cells.(old_id) in
           Cell.make ~id:new_id ~name:c.Cell.name ~width:c.Cell.width
             ~height:c.Cell.height ?bottom_rail:c.Cell.bottom_rail ())
         cell_ids)
  in
  let xs =
    Array.of_list (List.map (fun i -> design.Design.global.Placement.xs.(i)) cell_ids)
  in
  let ys =
    Array.of_list (List.map (fun i -> design.Design.global.Placement.ys.(i)) cell_ids)
  in
  let blockages =
    Array.append design.Design.blockages (Array.of_list extra_blockages)
  in
  Design.make ~blockages
    ~name:(design.Design.name ^ "/" ^ label)
    ~chip:design.Design.chip ~cells
    ~global:(Placement.make ~xs ~ys)
    ~nets:(Netlist.empty ~num_cells:(Array.length cells))
    ()

let record_aggregates obs stats =
  Obs.add obs "fence/territories" stats.territories;
  Obs.add obs "fence/illegal_before" (total_illegal stats);
  Obs.add obs "fence/relocated" (total_relocated stats);
  Obs.add obs "fence/evicted" (total_evicted stats);
  Obs.add obs "fence/over_subscribed"
    (List.length (over_subscribed_territories stats));
  Obs.add obs "fence/unplaced" (List.length (total_unplaced stats));
  if not (all_converged stats) then Obs.incr obs "fence/nonconverged";
  Obs.gauge obs "fence/max_mismatch" (max_mismatch stats)

(* ---- over-subscription: capacity of a region vs its members ---------- *)

(* usable area of region k: the union of its rectangles minus any overlap
   with blockages (regions never overlap each other) *)
let region_capacity (design : Design.t) k =
  let reg = design.Design.regions.(k) in
  let blocked =
    List.fold_left
      (fun acc (r : Region.rect) ->
        Array.fold_left
          (fun acc (b : Blockage.t) ->
            let rows =
              min (r.Region.row + r.Region.height)
                (b.Blockage.row + b.Blockage.height)
              - max r.Region.row b.Blockage.row
            in
            let cols =
              min (r.Region.x + r.Region.width) (b.Blockage.x + b.Blockage.width)
              - max r.Region.x b.Blockage.x
            in
            if rows > 0 && cols > 0 then acc + (rows * cols) else acc)
          acc design.Design.blockages)
      0 reg.Region.rects
  in
  Region.area reg - blocked

(* how far a member's global position sits from its region: 0 when the
   cell's span already touches the region, else the Manhattan distance of
   the cell center to the nearest rectangle — the eviction policy sends
   the cells that wandered farthest back to the default territory *)
let region_distance (design : Design.t) k i =
  let c = design.Design.cells.(i) in
  let gx = design.Design.global.Placement.xs.(i)
  and gy = design.Design.global.Placement.ys.(i) in
  let reg = design.Design.regions.(k) in
  let row = int_of_float (Float.round gy) in
  if
    Region.intersects_span reg ~row ~height:c.Cell.height ~x:gx
      ~width:c.Cell.width
  then 0.0
  else begin
    let cx = gx +. (float_of_int c.Cell.width /. 2.0) in
    let cy = gy +. (float_of_int c.Cell.height /. 2.0) in
    List.fold_left
      (fun acc (r : Region.rect) ->
        let dx =
          Float.max 0.0
            (Float.max
               (float_of_int r.Region.x -. cx)
               (cx -. float_of_int (r.Region.x + r.Region.width)))
        in
        let dy =
          Float.max 0.0
            (Float.max
               (float_of_int r.Region.row -. cy)
               (cy -. float_of_int (r.Region.row + r.Region.height)))
        in
        Float.min acc (dx +. dy))
      infinity reg.Region.rects
  end

(* evict members of over-subscribed regions to the default class until
   each region's member area fits its usable capacity; returns the
   (possibly updated) classes plus per-region (over_subscribed, evicted) *)
let evict_overflow (design : Design.t) classes num_regions =
  let over = Array.make (num_regions + 1) false in
  let evicted_count = Array.make (num_regions + 1) 0 in
  for k = 0 to num_regions - 1 do
    let members = classes.(k) in
    let area =
      List.fold_left
        (fun acc i -> acc + Cell.area design.Design.cells.(i))
        0 members
    in
    let cap = region_capacity design k in
    if area > cap then begin
      over.(k) <- true;
      (* farthest-wandered members first, largest first on ties *)
      let ranked =
        List.sort
          (fun a b ->
            let da = region_distance design k a
            and db = region_distance design k b in
            let c = compare db da in
            if c <> 0 then c
            else
              let c =
                compare
                  (Cell.area design.Design.cells.(b))
                  (Cell.area design.Design.cells.(a))
              in
              if c <> 0 then c else compare a b)
          members
      in
      let remaining = ref area and keep = ref [] and gone = ref [] in
      List.iter
        (fun i ->
          if !remaining > cap then begin
            remaining := !remaining - Cell.area design.Design.cells.(i);
            gone := i :: !gone
          end
          else keep := i :: !keep)
        ranked;
      evicted_count.(k) <- List.length !gone;
      classes.(k) <- List.sort compare !keep;
      classes.(num_regions) <-
        List.sort compare (!gone @ classes.(num_regions))
    end
  done;
  (over, evicted_count)

let legalize ?(config = Config.default) ?obs (design : Design.t) =
  let num_regions = Array.length design.Design.regions in
  if num_regions = 0 then begin
    (* no fences: a single territory, recorded straight into [obs] *)
    let result = Flow.run ~config ?obs design in
    let stats =
      { territories = 1;
        per_territory =
          [ territory_of_flow
              ~unplaced:result.Flow.alloc.Tetris_alloc.unplaced
              design.Design.name (Design.num_cells design)
              result ] }
    in
    record_aggregates obs stats;
    (result.Flow.legal, stats)
  end
  else begin
    let n = Design.num_cells design in
    let classes = Array.make (num_regions + 1) [] in
    for i = n - 1 downto 0 do
      let k =
        match design.Design.cells.(i).Cell.region with
        | Some r -> r
        | None -> num_regions
      in
      classes.(k) <- i :: classes.(k)
    done;
    (* a region too small for its members would previously crash inside
       its territory's allocation; detect it up front and evict the
       overflow to the default territory (graceful degradation: the
       evictees end up legally placed but outside their fence, which the
       final legality check reports as exit 2 rather than a crash) *)
    let over, evicted_count = evict_overflow design classes num_regions in
    (* one job per non-empty territory, in class order; the sub-problems
       are independent (disjoint cell sets, disjoint geometry), so they
       fan out over the domain pool. Results come back in job order and
       every job writes a disjoint set of cell indices, so the merged
       placement is identical to a sequential run. *)
    let jobs =
      Array.of_list
        (List.filter_map
           (fun k -> if classes.(k) = [] then None else Some k)
           (List.init (num_regions + 1) Fun.id))
    in
    let run_territory k =
      let cell_ids = classes.(k) in
      let label, extra =
        if k < num_regions then begin
          let reg = design.Design.regions.(k) in
          ( reg.Region.name,
            Region.complement_blockages reg design.Design.chip )
        end
        else
          ( "default",
            Array.to_list design.Design.regions
            |> List.concat_map Region.to_blockages )
      in
      let sub = sub_design design ~label ~cell_ids ~extra_blockages:extra in
      (* each pool job records into its own recorder; the orchestrating
         thread attaches them as sub-reports after fan-in (recorders are
         not thread-safe) *)
      let territory_obs =
        match obs with None -> None | Some _ -> Some (Obs.create ())
      in
      let result = Flow.run ~config ?obs:territory_obs sub in
      (k, label, cell_ids, result, territory_obs)
    in
    let results =
      Mclh_par.Pool.parallel_map
        (Mclh_par.Pool.get ~num_domains:config.Config.num_domains)
        run_territory jobs
    in
    let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
    let per_territory =
      Array.to_list results
      |> List.map (fun (k, label, cell_ids, result, territory_obs) ->
             List.iteri
               (fun new_id old_id ->
                 xs.(old_id) <- result.Flow.legal.Placement.xs.(new_id);
                 ys.(old_id) <- result.Flow.legal.Placement.ys.(new_id))
               cell_ids;
             (match territory_obs with
             | Some t ->
               Obs.sub obs
                 ("territory/" ^ label)
                 (Mclh_obs.Run_report.to_json t)
             | None -> ());
             (* map the territory's unplaced sub-ids back to design ids *)
             let ids = Array.of_list cell_ids in
             let unplaced =
               List.map
                 (fun sub_id -> ids.(sub_id))
                 result.Flow.alloc.Tetris_alloc.unplaced
             in
             territory_of_flow ~over_subscribed:over.(k)
               ~evicted:evicted_count.(k) ~unplaced label
               (List.length cell_ids) result)
    in
    let stats = { territories = Array.length results; per_territory } in
    record_aggregates obs stats;
    (Placement.make ~xs ~ys, stats)
  end
