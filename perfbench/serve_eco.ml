(* Workload [serve_eco]: an `mclh serve` daemon in its own process,
   holding a fleet of four blockage-rich sessions (fft_2 twice,
   pci_bridge32_a, pci_bridge32_b at scale 0.04 with 15% blockage), under
   open-loop ECO traffic: independent users send 4-move edit batches
   (writes) and `query cells` (reads) on a fixed schedule at one offered
   rate, over two connections, whether or not earlier requests have been
   answered. The only workload where the incremental engine's dirty-shard,
   cache and warm-start path and the wire protocol dominate; the solver
   sees only tiny warm shards.

   Latency is timed from each request's due time, so a stall also counts
   against the requests queued behind it. A busy or error reply, or a
   request never answered, is a failed operation and is never retried.
   After the load, every session's applied-batch log is replayed serially
   on a local Incr session of the same design file; the served placement
   must be bit-identical to the replay and legal. *)

open Mclh_circuit
open Mclh_serve
open Common

let scale = 0.04
let blockages = 0.15
let edits_per_batch = 4
let connections = 2

(* set-ups (~0.15 s each) before the load and after it, so that their
   median straddles the ~22 s of load rather than sampling only the
   moment the run began. Single set-ups fall in two groups ~40% apart
   (0.12 and 0.17 s), in no order, so a run makes enough of them for the
   median to settle. *)
let setups_before = 10
let setups_after = 10

(* offered load in requests per second: about half the rate at which
   the daemon saturates on a two-core machine running at half speed, as
   a shared machine does in its slow spells, so the queue stays short
   even then (see NOTES.md) *)
let rate = 50.0

(* one request in ten is a read *)
let query_share = 0.1

(* the load lasts --seconds, or longer when that is needed to send 1,008
   edits, so p99 has at least ten samples beyond it *)
let min_requests = 1120

(* the fleet: session, generator bench, design seed. The designs are
   fixed; the run's seed draws the traffic (which session, which cells,
   where they move, reads or writes), so runs differ in requests, not in
   the fleet's size and shape. *)
let fleet =
  [ ("s0", "fft_2", 1); ("s1", "fft_2", 7); ("s2", "pci_bridge32_a", 1);
    ("s3", "pci_bridge32_b", 1) ]

(* ---- the daemon process ---- *)

type daemon = { pid : int; admin : Client.t }

let live = ref []

let reap pid =
  let rec go tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      go (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go tries
  in
  go 1000;
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let daemon_exe () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "mclh_cli.exe" ]

let spawn tag =
  let sock =
    Filename.concat out_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) tag)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let exe = daemon_exe () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; sock |] Unix.stdin
      Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let addr = Protocol.Unix_sock sock in
  let deadline = now () +. 30.0 in
  let rec connect () =
    match Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.005;
      connect ()
  in
  (addr, { pid; admin = connect () })

let stop d =
  (try ignore (Client.request d.admin Protocol.Shutdown) with _ -> ());
  Client.close d.admin;
  reap d.pid

let request d req =
  Span.with_ "client.request" (fun () -> Client.request d.admin req)

(* ---- set-up: generate, hand the daemon the files, open the fleet ---- *)

type session = { name : string; path : string; design : Design.t; cells : int }

let setup tag =
  let sessions =
    List.map
      (fun (name, bench, s) ->
        let design = generate ~blockages ~bench ~scale s in
        let path =
          Filename.concat out_dir (Printf.sprintf "%s-%d.mclh" name (Unix.getpid ()))
        in
        Io.write_design ~path design;
        { name; path; design; cells = Design.num_cells design })
      fleet
  in
  let addr, d = Span.with_ "serve.spawn" (fun () -> spawn tag) in
  List.iter
    (fun s ->
      match request d (Open { session = s.name; source = From_file { path = s.path } }) with
      | Protocol.Opened { legal = true; _ } -> ()
      | r -> failwith ("open failed: " ^ Protocol.response_to_line r))
    sessions;
  (sessions, addr, d)

(* ---- the open-loop schedule ---- *)

type kind = Edit of string | Read of string

type planned = { due : float; conn : int; kind : kind; line : string }

let schedule ~seed ~seconds sessions =
  let rng = Mclh_benchgen.Rng.create (7919 * seed) in
  let n = max min_requests (int_of_float (Float.round (rate *. seconds))) in
  let n_reads = int_of_float (Float.round (query_share *. float_of_int n)) in
  (* evenly spaced due times: a burst in the replies is the daemon's,
     not the schedule's *)
  let dues = Array.init n (fun i -> float_of_int i /. rate) in
  let reads = Array.init n (fun i -> i < n_reads) in
  for i = n - 1 downto 1 do
    let j = Mclh_benchgen.Rng.int rng (i + 1) in
    let t = reads.(i) in
    reads.(i) <- reads.(j);
    reads.(j) <- t
  done;
  let fleet = Array.of_list sessions in
  let clamp hi v = Float.min hi (Float.max 0.0 v) in
  Array.mapi
    (fun i due ->
      let s = fleet.(Mclh_benchgen.Rng.int rng (Array.length fleet)) in
      let kind, req =
        if reads.(i) then
          (Read s.name, Protocol.Query { session = s.name; what = Q_cells })
        else begin
          let g = s.design.Design.global in
          let bound a = Array.fold_left Float.max 1.0 a in
          let max_x = bound g.Placement.xs and max_y = bound g.Placement.ys in
          let edits =
            List.init edits_per_batch (fun _ ->
                let cell = Mclh_benchgen.Rng.int rng s.cells in
                let x =
                  clamp max_x
                    (g.Placement.xs.(cell) +. (5.0 *. Mclh_benchgen.Rng.gaussian rng))
                and y =
                  clamp max_y
                    (g.Placement.ys.(cell) +. (0.75 *. Mclh_benchgen.Rng.gaussian rng))
                in
                Mclh_incr.Edit.Move { cell; x; y })
          in
          (Edit s.name, Protocol.Edit_batch { session = s.name; edits })
        end
      in
      { due; conn = i mod connections; kind; line = Protocol.request_to_line req })
    dues

(* ---- the load ---- *)

type reply = { sent : float; received : float; text : string option }

(* send every planned request at its due time; a receiver thread per
   connection stamps each reply as it arrives. Traced, each request is a
   span from its due time to its reply whose one child is the round trip
   from the moment it was sent, so the generator's lateness is the part
   of a request's time no layer covers. *)
let load addr plan ~drain_s =
  let n = Array.length plan in
  let replies = Array.make n { sent = Float.nan; received = Float.nan; text = None } in
  let parent = Span.current () in
  let conns = Array.init connections (fun _ -> Client.connect addr) in
  let lock = Mutex.create () in
  let in_flight = Array.init connections (fun _ -> Queue.create ()) in
  let answered = Atomic.make 0 in
  let expected c = Array.fold_left (fun k p -> if p.conn = c then k + 1 else k) 0 plan in
  let t0 = now () in
  let receiver c =
    let rec go k =
      if k > 0 then
        match Client.recv_line conns.(c) with
        | None -> ()
        | Some text ->
          let received = now () in
          let i, sent =
            Mutex.protect lock (fun () -> Queue.pop in_flight.(c))
          in
          replies.(i) <- { sent; received; text = Some text };
          let request =
            Span.record ~parent "request" ~start:(t0 +. plan.(i).due) ~stop:received
          in
          ignore (Span.record ~parent:request "serve.round_trip" ~start:sent ~stop:received);
          Atomic.incr answered;
          go (k - 1)
    in
    go (expected c)
  in
  let threads = Array.init connections (fun c -> Thread.create receiver c) in
  Array.iteri
    (fun i p ->
      let wait = t0 +. p.due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      let sent = now () in
      Mutex.protect lock (fun () -> Queue.push (i, sent) in_flight.(p.conn));
      Client.send_line conns.(p.conn) p.line)
    plan;
  let deadline = now () +. drain_s in
  while Atomic.get answered < n && now () < deadline do
    Unix.sleepf 0.001
  done;
  (t0, replies, conns, threads)

(* ---- one measurement ---- *)

let parse text =
  match text with
  | None -> None
  | Some line -> Result.to_option (Protocol.response_of_line line)

let measure ~seed ~seconds ~traced =
  Span.reset ~enabled:traced;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let setup_times = ref [] and tag = ref 0 in
  let fresh () =
    incr tag;
    timed_setup setup_times (fun () -> setup !tag)
  in
  let remove_files sessions = List.iter (fun s -> Sys.remove s.path) sessions in
  let teardown (sessions, _, d) =
    stop d;
    remove_files sessions
  in
  for _ = 2 to setups_before do
    teardown (fresh ())
  done;
  let sessions, addr, daemon = fresh () in
  let plan = schedule ~seed ~seconds sessions in
  let t0, replies, conns, threads =
    Span.with_ "load" (fun () -> load addr plan ~drain_s:30.0)
  in
  let cells_of name = (List.find (fun s -> s.name = name) sessions).cells in
  let edit_ms = ref [] and read_ms = ref [] and overhead_ms = ref [] in
  let lag_ms = ref [] and failed = ref 0 and busy_replies = ref 0 in
  let applies = Hashtbl.create 1024 and last_components = Hashtbl.create 4 in
  let ms a b = 1000.0 *. (b -. a) in
  Array.iteri
    (fun i p ->
      let r = replies.(i) and due = t0 +. p.due in
      if Float.is_finite r.sent then lag_ms := ms due r.sent :: !lag_ms;
      match (p.kind, parse r.text) with
      | Edit s, Some (Protocol.Edited { seq; stats; _ }) ->
        edit_ms := ms due r.received :: !edit_ms;
        overhead_ms :=
          (ms r.sent r.received -. (1000.0 *. stats.Mclh_incr.Incr.latency_s))
          :: !overhead_ms;
        Hashtbl.replace applies (s, seq) stats;
        (match Hashtbl.find_opt last_components s with
        | Some (seq', _) when seq' > seq -> ()
        | _ ->
          Hashtbl.replace last_components s (seq, stats.Mclh_incr.Incr.components))
      | Read s, Some (Protocol.Cells { xs; _ }) when Array.length xs = cells_of s ->
        read_ms := ms due r.received :: !read_ms
      | _, Some (Protocol.Failed { code = Protocol.Busy; _ }) ->
        incr busy_replies;
        incr failed
      | _ -> incr failed)
    plan;
  let coalesced, peak_rss_kb =
    match request daemon Protocol.Stats with
    | Protocol.Server_stats { coalesced; peak_rss_kb = Some kb; _ } -> (coalesced, kb)
    | r -> failwith ("stats failed: " ^ Protocol.response_to_line r)
  in
  (* the replay gate: each session's log, applied serially to a local
     session of the same design file, must give the served placement *)
  let replay s =
    let log =
      match request daemon (Query { session = s.name; what = Q_log }) with
      | Protocol.Log { log; _ } -> log
      | r -> failwith ("log failed: " ^ Protocol.response_to_line r)
    in
    let served =
      match request daemon (Query { session = s.name; what = Q_cells }) with
      | Protocol.Cells { xs; ys; _ } -> Placement.make ~xs ~ys
      | r -> failwith ("cells failed: " ^ Protocol.response_to_line r)
    in
    let local =
      Span.with_ "incr.create" (fun () ->
          Mclh_incr.Incr.create ~config:Server.default_config.Server.incr_config
            (Io.read_design ~path:s.path))
    in
    List.iter
      (fun (_, edits) ->
        ignore (Span.with_ "incr.apply" (fun () -> Mclh_incr.Incr.apply local edits)))
      log;
    let final = Mclh_incr.Incr.design local in
    ( bit_identical served (Mclh_incr.Incr.legal local)
      && Legality.is_legal final served,
      hpwl final served,
      displacement final ~before:final.Design.global served )
  in
  let checks = List.map replay sessions in
  stop daemon;
  Array.iter Thread.join threads;
  Array.iter Client.close conns;
  remove_files sessions;
  for _ = 1 to setups_after do
    teardown (fresh ())
  done;
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 checks in
  let stats = Hashtbl.fold (fun _ st acc -> st :: acc) applies [] in
  let total f = float_of_int (List.fold_left (fun acc st -> acc + f st) 0 stats) in
  let hits = total (fun st -> st.Mclh_incr.Incr.cache_hits)
  and dirty = total (fun st -> st.Mclh_incr.Incr.dirty_shards) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let n = Array.length plan in
  let e2e =
    [ ("setup_s", Stats.median !setup_times);
      ("op_p50_ms", Stats.median !edit_ms);
      ("hpwl", sum (fun (_, h, _) -> h));
      ("displacement", sum (fun (_, _, d) -> d));
      ("peak_rss_mb", float_of_int peak_rss_kb /. 1024.0);
      ("ok_ratio", 1.0 -. (float_of_int !failed /. float_of_int n)) ]
  in
  let layers =
    if not traced then []
    else
      Common.layers
        ~exercised:[ "benchgen."; "decompose.components"; "incr."; "serve."; "trace." ]
        ~setup_reps:(List.length !setup_times) ~op_reps:1 ~timed_root:"request"
        [ ( "decompose.components",
            Hashtbl.fold (fun _ (_, c) acc -> acc +. float_of_int c) last_components 0.0 );
          ( "incr.apply_p50_ms",
            Stats.median (List.map (fun st -> 1000.0 *. st.Mclh_incr.Incr.latency_s) stats) );
          ("incr.cache_hit_ratio", ratio hits (hits +. dirty));
          ("incr.dirty_shard_ratio", ratio dirty (total (fun st -> st.Mclh_incr.Incr.shards)));
          ( "incr.solve_iterations",
            ratio (total (fun st -> st.Mclh_incr.Incr.solve_iterations)) (float_of_int (List.length stats)) );
          ("serve.overhead_p50_ms", Stats.median !overhead_ms);
          ("serve.query_p50_ms", Stats.median !read_ms);
          ("serve.coalesced", float_of_int coalesced);
          ("serve.busy", float_of_int !busy_replies);
          ("serve.gen_lag_ms", Stats.percentile 99.0 !lag_ms);
          ("serve.edit_p99_ms", Stats.percentile 99.0 !edit_ms) ]
  in
  ( { attempted = n;
      failed = !failed;
      correct = List.for_all (fun (ok, _, _) -> ok) checks;
      e2e;
      layers;
      notes =
        [ ("design", Mclh_report.Json.String "fft_2,fft_2,pci_bridge32_a,pci_bridge32_b");
          ("scale", Mclh_report.Json.Float scale);
          ( "seeds",
            Mclh_report.Json.List
              (List.map (fun (_, _, s) -> Mclh_report.Json.Int s) fleet) );
          ("traffic_seed", Mclh_report.Json.Int seed);
          ("blockages", Mclh_report.Json.Float blockages);
          ("rate_per_s", Mclh_report.Json.Float rate);
          ("connections", Mclh_report.Json.Int connections);
          ("edits", Mclh_report.Json.Int (List.length !edit_ms));
          ( "edit_quartiles_ms",
            Mclh_report.Json.List
              (List.map (fun q -> Mclh_report.Json.Float q) (Stats.quartiles !edit_ms)) );
          ("reads", Mclh_report.Json.Int (List.length !read_ms));
          ("setup_times_s", floats_json (List.rev !setup_times)) ] },
    () )

let run ~seed ~seconds ~trace =
  traced_pair ~trace ~same:(fun () () -> true) (fun ~traced ->
      measure ~seed ~seconds ~traced)
