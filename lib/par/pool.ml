(* A reusable domain pool.

   Worker domains persist across jobs and park on a condition variable
   between submissions, so per-job dispatch costs one broadcast and the
   many short fan-outs of a process (model-build chunks, one solve's
   shards, an ECO batch's cache misses) reuse the same domains instead
   of spawning their own.

   Concurrency protocol: a job is published by bumping [generation] under
   the lock and broadcasting; each worker keeps the last generation it ran
   and runs the new job once. The submitting domain runs it too, then
   blocks until [active] drains to zero. Every job is one pull loop
   ({!parallel_iter}): members take the next element off an atomic
   counter until the array is exhausted.

   Nesting: the pool is deliberately non-reentrant. A [busy] flag is
   taken for the duration of a job; any parallel entry point that finds
   the pool busy (a nested call from inside a running job, e.g. a
   per-territory Flow.run that reaches the solver's shard fan-out while
   Fence already fans territories out) silently degrades to the
   sequential path. Each element runs exactly once, whichever member
   pulls it, and all parallel writes target disjoint slices, so
   sequential and parallel execution produce bit-identical results —
   the property test_par.ml pins down. *)

type job = unit -> unit (* each member runs it once; it pulls its own share *)

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

(* worker loop of a spawned member *)
let worker t =
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
      (try job ()
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
    List.init (num_domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
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
      job ();
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

let parallel_iter t f arr =
  let n = Array.length arr in
  let ran_par =
    n > 1
    && try_with_pool t (fun () ->
           let next = Atomic.make 0 in
           run_job t (fun () ->
               let rec pull () =
                 let i = Atomic.fetch_and_add next 1 in
                 if i < n then begin
                   f arr.(i);
                   pull ()
                 end
               in
               pull ()))
  in
  if not ran_par then Array.iter f arr

let parallel_map t f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  parallel_iter t (fun i -> results.(i) <- Some (f arr.(i))) (Array.init n Fun.id);
  Array.map Option.get results

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
