(* Order statistics and span arithmetic for the benchmark's reports. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. With n samples, n - ceil(p n / 100) of
   them lie strictly beyond it, so p99 has ten samples beyond it from
   n = 1000 on. *)
let percentile p values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* the three cut points of Python's [statistics.quantiles(v, n=4)]
   (its default "exclusive" method) *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0)
    [ 1; 2; 3 ]

(* total length of the union of [intervals] clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let by_start = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) by_start
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

type span = { id : int; name : string; parent : int; start : float; stop : float }

let children spans =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add tbl s.parent s) spans;
  fun id -> Hashtbl.find_all tbl id

(* per span name, the summed self time: each span's duration minus the
   part of its interval its direct children cover (children may overlap
   each other, e.g. concurrent requests under one load phase) *)
let self_times spans =
  let kids = children spans in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let inner =
        covered ~lo:s.start ~hi:s.stop
          (List.map (fun c -> (c.start, c.stop)) (kids s.id))
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (prev +. (s.stop -. s.start -. inner)))
    spans;
  acc

(* share of the [roots]' total duration covered by their descendant
   leaf spans *)
let leaf_coverage spans roots =
  let kids = children spans in
  let rec leaves s =
    match kids s.id with [] -> [ (s.start, s.stop) ] | cs -> List.concat_map leaves cs
  in
  let wall, covered_s =
    List.fold_left
      (fun (wall, cov) r ->
        let inner =
          match kids r.id with
          | [] -> 0.0
          | cs -> covered ~lo:r.start ~hi:r.stop (List.concat_map leaves cs)
        in
        (wall +. (r.stop -. r.start), cov +. inner))
      (0.0, 0.0) roots
  in
  if wall > 0.0 then covered_s /. wall else 0.0
