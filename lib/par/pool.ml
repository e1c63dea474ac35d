(* A reusable domain pool.

   Worker domains persist across jobs and park on a condition variable
   between submissions, so per-job dispatch costs one broadcast and the
   many short fan-outs of a process (model-build chunks, one solve's
   shards, an ECO batch's cache misses) reuse the same domains instead
   of spawning their own.

   Concurrency protocol: a job is published by bumping [generation] under
   the lock and broadcasting; each worker keeps the last generation it ran
   and picks up exactly one unit of the new one. The submitting domain
   participates as worker 0, then blocks until [active] drains to zero.

   Nesting: the pool is deliberately non-reentrant. A [busy] flag is
   taken for the duration of a job; any parallel entry point that finds
   the pool busy (a nested call from inside a running job, e.g. a
   per-territory Flow.run that reaches the solver's shard fan-out while
   Fence already fans territories out) silently degrades to the
   sequential path. Work partitioning is index-deterministic and all
   parallel writes target disjoint slices, so sequential and parallel
   execution produce bit-identical results — the property test_par.ml
   pins down. *)

type job = int -> unit (* worker index -> work (pulls its own share) *)

type t = {
  size : int; (* parallelism degree including the caller; >= 1 *)
  lock : Mutex.t;
  work_cond : Condition.t;
  done_cond : Condition.t;
  mutable generation : int;
  mutable job : job option;
  mutable active : int; (* spawned workers still inside the current job *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
  busy : bool Atomic.t;
}

let size t = t.size

(* More pool members than hardware threads: fanning a job out would only
   timeslice domains on shared cores — and every minor collection then
   pays a stop-the-world rendezvous across runnable domains that cannot
   actually run, which is far slower than doing the work on the caller.
   (Results are unaffected either way; this is purely a scheduling
   signal.) *)
let oversubscribed t = t.size > Domain.recommended_domain_count ()

(* the OCaml 5.1 runtime's [Max_domains]: [Domain.spawn] fails beyond it *)
let max_domains = 128

let default_num_domains () =
  match Sys.getenv_opt "MCLH_DOMAINS" with
  | Some s -> Option.value (int_of_string_opt (String.trim s)) ~default:0
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* worker loop: [wid] is this worker's stable index in 1..size-1 *)
let worker t wid =
  let gen = ref 0 in
  let rec loop () =
    Mutex.lock t.lock;
    while (not t.stopped) && t.generation = !gen do
      Condition.wait t.work_cond t.lock
    done;
    if t.stopped then Mutex.unlock t.lock
    else begin
      gen := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      (try job wid
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.lock;
         if t.failed = None then t.failed <- Some (e, bt);
         Mutex.unlock t.lock);
      Mutex.lock t.lock;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.done_cond;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ~num_domains =
  if num_domains < 1 || num_domains > max_domains then
    invalid_arg
      (Printf.sprintf "Pool.create: num_domains must lie in 1..%d, got %d"
         max_domains num_domains);
  let t =
    { size = num_domains;
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      generation = 0;
      job = None;
      active = 0;
      failed = None;
      stopped = false;
      domains = [];
      busy = Atomic.make false }
  in
  t.domains <-
    List.init (num_domains - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  let already = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.lock;
  if not already then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* Run [job] on every pool member (caller included) and wait for all of
   them; re-raises the first exception any member threw. Callers must
   hold the [busy] flag. *)
let run_job t job =
  Mutex.lock t.lock;
  t.job <- Some job;
  t.failed <- None;
  t.active <- t.size - 1;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.lock;
  let caller_failure =
    try
      job 0;
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.lock;
  while t.active > 0 do
    Condition.wait t.done_cond t.lock
  done;
  t.job <- None;
  let worker_failure = t.failed in
  t.failed <- None;
  Mutex.unlock t.lock;
  match (caller_failure, worker_failure) with
  | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None, None -> ()

(* Try to take the pool for one job; false means the caller must run the
   sequential path itself (degenerate pool, stopped pool, or nested
   entry). *)
let try_with_pool t par =
  if t.size <= 1 || t.stopped then false
  else if not (Atomic.compare_and_set t.busy false true) then false
  else begin
    Fun.protect ~finally:(fun () -> Atomic.set t.busy false) par;
    true
  end

let parallel_map t f arr =
  let n = Array.length arr in
  if n <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let ran_par =
      try_with_pool t (fun () ->
          let next = Atomic.make 0 in
          run_job t (fun _wid ->
              let rec pull () =
                let i = Atomic.fetch_and_add next 1 in
                if i < n then begin
                  results.(i) <- Some (f arr.(i));
                  pull ()
                end
              in
              pull ()))
    in
    if ran_par then
      Array.map
        (function
          | Some v -> v
          | None -> failwith "Pool.parallel_map: missing result")
        results
    else Array.map f arr
  end

(* Chunked weighted fan-out: [order] is a caller-chosen processing order
   (typically heaviest first); consecutive elements are grouped into
   chunks of at least [min_chunk_weight] total weight and each chunk
   becomes one dynamically-scheduled pool job. With tens of thousands of
   tiny items (scale-1.0 shard counts) this keeps the per-job dispatch
   and closure cost proportional to the number of chunks, not items,
   while heavy items still get a job of their own. The chunking depends
   only on [order] and the weights — never on the pool size — so any
   degree (including the sequential fallback) processes every element
   exactly once with bit-identical effects. *)
let parallel_iter_weighted ?(min_chunk_weight = 1) t ~weight ~f order =
  if min_chunk_weight < 1 then
    invalid_arg "Pool.parallel_iter_weighted: min_chunk_weight < 1";
  let n = Array.length order in
  if n > 0 then begin
    (* chunk starts: positions in [order] where the running weight resets *)
    let count_chunks () =
      let count = ref 0 and acc = ref 0 in
      for idx = 0 to n - 1 do
        if !acc = 0 then incr count;
        acc := !acc + max 1 (weight order.(idx));
        if !acc >= min_chunk_weight then acc := 0
      done;
      !count
    in
    let num_chunks = count_chunks () in
    let starts = Array.make (num_chunks + 1) n in
    let k = ref 0 and acc = ref 0 in
    for idx = 0 to n - 1 do
      if !acc = 0 then begin
        starts.(!k) <- idx;
        incr k
      end;
      acc := !acc + max 1 (weight order.(idx));
      if !acc >= min_chunk_weight then acc := 0
    done;
    let run_chunk c =
      for idx = starts.(c) to starts.(c + 1) - 1 do
        f order.(idx)
      done
    in
    let ran_par =
      num_chunks > 1
      && try_with_pool t (fun () ->
             let next = Atomic.make 0 in
             run_job t (fun _wid ->
                 let rec pull () =
                   let c = Atomic.fetch_and_add next 1 in
                   if c < num_chunks then begin
                     run_chunk c;
                     pull ()
                   end
                 in
                 pull ()))
    in
    if not ran_par then
      for c = 0 to num_chunks - 1 do
        run_chunk c
      done
  end

let parallel_iter_chunks ?(min_chunk = 1) t n ~f =
  if min_chunk < 1 then invalid_arg "Pool.parallel_iter_chunks: min_chunk < 1";
  if n > 0 then begin
    let max_workers = (n + min_chunk - 1) / min_chunk in
    let ran_par =
      max_workers > 1
      && try_with_pool t (fun () ->
             let workers = min t.size max_workers in
             let per = n / workers and rem = n mod workers in
             run_job t (fun wid ->
                 if wid < workers then begin
                   let lo = (wid * per) + min wid rem in
                   let hi = lo + per + if wid < rem then 1 else 0 in
                   if hi > lo then f lo hi
                 end))
    in
    if not ran_par then f 0 n
  end

(* ---------- shared pools ---------- *)

(* Pools are process-lifetime: parked workers cost nothing, and sharing
   one pool per size keeps nested layers (bench fan-out -> Fence
   territories -> the solver's shard fan-out) on the same pool, where the busy flag
   serializes them instead of oversubscribing the machine. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let get ~num_domains =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry num_domains with
      | Some p -> p
      | None ->
        let p = create ~num_domains in
        Hashtbl.replace registry num_domains p;
        p)

let default () = get ~num_domains:(default_num_domains ())
