(* Wall-clock timing. [Sys.time] returns *processor* time, which counts
   every domain's CPU seconds — under multicore execution it over-reports
   elapsed time roughly by the parallelism degree, and it under-reports
   anything that blocks. All runtime reporting goes through this module. *)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
