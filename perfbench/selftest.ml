(* Checks of the benchmark's own statistics on fixed inputs. Every run
   executes them first and refuses to measure if one fails. *)

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let span id name parent start stop = { Stats.id; name; parent; start; stop }

(* root [0,10] with children a [1,4] and b [3,6], which overlap, and a
   grandchild c [2,3] under a *)
let tree =
  [ span 0 "root" (-1) 0.0 10.0; span 1 "a" 0 1.0 4.0; span 2 "b" 0 3.0 6.0;
    span 3 "c" 1 2.0 3.0 ]

let self_of name =
  Option.value ~default:Float.nan (Hashtbl.find_opt (Stats.self_times tree) name)

let checks =
  [ ("median odd", close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
    ("median even", close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
    ("p50 of 1..10", close (Stats.percentile 50.0 (range 1 10)) 5.0);
    ("p99 of 1..1000 leaves ten beyond", close (Stats.percentile 99.0 (range 1 1000)) 990.0);
    ("p99 of three is the max", close (Stats.percentile 99.0 [ 5.0; 1.0; 3.0 ]) 5.0);
    ("p100 is the max", close (Stats.percentile 100.0 (range 1 7)) 7.0);
    ( "quartiles of 1..10",
      List.for_all2 close (Stats.quartiles (range 1 10)) [ 2.75; 5.5; 8.25 ] );
    ( "quartiles of two clamp like Python",
      List.for_all2 close (Stats.quartiles [ 2.0; 1.0 ]) [ 0.75; 1.5; 2.25 ] );
    ("union of overlapping intervals", close (Stats.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 6.0); (8.0, 12.0) ]) 7.0);
    ("self time of root", close (self_of "root") 5.0);
    ("self time of a", close (self_of "a") 2.0);
    ("self time of b", close (self_of "b") 3.0);
    ("self time of leaf c", close (self_of "c") 1.0);
    ( "leaf coverage of root",
      close (Stats.leaf_coverage tree [ List.hd tree ]) 0.4 ) ]

(* names of the failing checks *)
let failures () = List.filter_map (fun (n, ok) -> if ok then None else Some n) checks
