(* Tests for the legalization service (lib/serve).

   - QCheck: every request/response round-trips through the JSON layer,
     and re-encoding is byte-identical (floats use shortest-exact
     emission, so wire placements are bit-exact).
   - A malformed-input corpus (truncated frames, nesting bombs, unknown
     ops, ill-typed fields) must produce clean error replies and leave
     open sessions uncorrupted.
   - The Incr busy guard: overlapping applies from two threads are
     rejected with `Busy instead of corrupting the session.
   - Concurrency stress: 8 in-process clients interleave edit batches
     across 3 sessions; final placements must be bit-identical to a
     serial replay of each session's applied-batch log.
   - Coalescing semantics, admission control, session lifecycle, and a
     live-socket smoke with a mid-frame client crash, both in-process and
     against an `mclh serve` daemon process. *)

open Mclh_circuit
open Mclh_core
open Mclh_serve
module Edit = Mclh_incr.Edit
module Incr = Mclh_incr.Incr

(* ---------- shared helpers ---------- *)

let test_scale = 0.01
let test_blockages = 0.15

let generated ?(bench = "fft_2") seed =
  Protocol.Generated
    { bench; scale = test_scale; seed; blockages = test_blockages; tall = 0.0 }

(* the exact design the server builds for [generated seed] *)
let local_design ?(bench = "fft_2") seed =
  let options =
    { Mclh_benchgen.Generate.default_options with
      seed;
      blockage_fraction = test_blockages;
      blockage_count = 32 }
  in
  (Mclh_benchgen.Generate.generate ~options
     (Mclh_benchgen.Spec.scaled test_scale (Mclh_benchgen.Spec.find bench)))
    .Mclh_benchgen.Generate.design

let local_session ?bench seed =
  Incr.create
    ~config:Server.default_config.Server.incr_config
    (local_design ?bench seed)

let check_bits_equal what (a : Placement.t) (b : Placement.t) =
  let n = Placement.num_cells a in
  Alcotest.(check int) (what ^ ": cell count") n (Placement.num_cells b);
  for i = 0 to n - 1 do
    let xa, ya = Placement.get a i and xb, yb = Placement.get b i in
    if
      Int64.bits_of_float xa <> Int64.bits_of_float xb
      || Int64.bits_of_float ya <> Int64.bits_of_float yb
    then
      Alcotest.failf "%s: cell %d differs: (%h,%h) vs (%h,%h)" what i xa ya xb
        yb
  done

let open_ok server name seed =
  match Server.handle_request server (Open { session = name; source = generated seed }) with
  | Protocol.Opened { legal; cells; _ } ->
    Alcotest.(check bool) (name ^ " opened legal") true legal;
    cells
  | r -> Alcotest.failf "open %s failed: %s" name (Protocol.response_to_line r)

let snapshot server name =
  match Server.handle_request server (Query { session = name; what = Q_cells }) with
  | Protocol.Cells { xs; ys; _ } -> (xs, ys)
  | r -> Alcotest.failf "query cells failed: %s" (Protocol.response_to_line r)

let applied_log server name =
  match Server.handle_request server (Query { session = name; what = Q_log }) with
  | Protocol.Log { log; _ } -> log
  | r -> Alcotest.failf "query log failed: %s" (Protocol.response_to_line r)

(* replay a session's applied-batch log serially on a fresh local
   session of the same generated design; placements must be bit-equal *)
let check_replay_matches server name seed =
  let log = applied_log server name in
  let xs, ys = snapshot server name in
  let replay = local_session seed in
  List.iter (fun (_, edits) -> ignore (Incr.apply replay edits)) log;
  check_bits_equal
    (Printf.sprintf "session %s vs serial replay (%d applies)" name
       (List.length log))
    (Placement.make ~xs ~ys) (Incr.legal replay)

(* ---------- QCheck: codec round-trips ---------- *)

let finite_float =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun m e -> Float.ldexp m e) (float_range (-1.0) 1.0) (int_range (-60) 60));
        ( 1,
          oneofl
            [ 0.0; -0.0; 1.0; -1.0; 0.1; 1.0 /. 3.0; 1e-17; 1e17; Float.pi;
              4503599627370497.0 ] ) ])

let edit_gen =
  QCheck.Gen.(
    oneof
      [ map3
          (fun cell x y -> Edit.Move { cell; x; y })
          (int_range 0 9999) finite_float finite_float;
        map2
          (fun cell width -> Edit.Resize { cell; width })
          (int_range 0 9999) (int_range 1 64);
        map
          (fun ((width, height), (x, y)) -> Edit.Insert { width; height; x; y })
          (pair (pair (int_range 1 64) (int_range 1 4)) (pair finite_float finite_float));
        map (fun cell -> Edit.Delete { cell }) (int_range 0 9999) ])

let session_gen =
  QCheck.Gen.(
    oneof
      [ map (fun n -> "s" ^ string_of_int n) small_nat;
        oneofl [ "a"; "fleet-1"; "with \"quotes\""; "back\\slash"; "sp ace" ] ])

let source_gen =
  QCheck.Gen.(
    oneof
      [ map (fun p -> Protocol.From_file { path = "designs/" ^ p ^ ".mclh" }) session_gen;
        map3
          (fun bench (scale, seed) (blockages, tall) ->
            Protocol.Generated { bench; scale; seed; blockages; tall })
          (oneofl [ "fft_2"; "des_perf_1" ])
          (pair (float_range 0.001 1.0) small_nat)
          (pair (float_range 0.0 0.4) (float_range 0.0 0.3)) ])

let request_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun session source -> Protocol.Open { session; source }) session_gen source_gen;
        map2
          (fun session edits -> Protocol.Edit_batch { session; edits })
          session_gen (list_size (0 -- 6) edit_gen);
        map2
          (fun session what -> Protocol.Query { session; what })
          session_gen
          (oneofl [ Protocol.Q_cells; Q_stats; Q_report; Q_log ]);
        map (fun session -> Protocol.Close { session }) session_gen;
        oneofl [ Protocol.Stats; Protocol.Ping; Protocol.Shutdown ] ])

let stats_gen =
  QCheck.Gen.(
    map3
      (fun a b (f, c) ->
        { Incr.edits = a;
          touched_cells = a + 1;
          dirty_components = b;
          components = b + 3;
          dirty_shards = b;
          shards = (2 * b) + 1;
          cache_hits = a;
          solve_iterations = a * b;
          max_iterations = b;
          converged = c;
          mismatch = Float.abs f;
          latency_s = Float.abs f })
      small_nat small_nat (pair finite_float bool))

let error_code_gen =
  QCheck.Gen.oneofl
    [ Protocol.Bad_request; Unknown_op; Unknown_session; Session_exists;
      Too_many_sessions; Busy; Rejected; Shutting_down; Internal ]

let response_gen =
  QCheck.Gen.(
    oneof
      [ map3
          (fun session cells (legal, init_s) ->
            Protocol.Opened { session; cells; legal; init_s })
          session_gen small_nat (pair bool finite_float);
        map3
          (fun session (seq, coalesced) stats ->
            Protocol.Edited { session; seq; coalesced; stats })
          session_gen
          (pair small_nat (int_range 1 64))
          stats_gen;
        map3
          (fun session xs ys -> Protocol.Cells { session; xs; ys })
          session_gen
          (array_size (0 -- 16) finite_float)
          (array_size (0 -- 16) finite_float);
        map3
          (fun session (cells, batches) (applies, (cache_entries, pending)) ->
            Protocol.Session_stats
              { session; cells; batches; applies; cache_entries; pending })
          session_gen (pair small_nat small_nat)
          (pair small_nat (pair small_nat small_nat));
        map2
          (fun session k ->
            Protocol.Report
              { session;
                report =
                  Mclh_report.Json.Obj
                    [ ("schema", Mclh_report.Json.String "mclh-run-report");
                      ("version", Mclh_report.Json.Int k) ] })
          session_gen small_nat;
        map2
          (fun session log -> Protocol.Log { session; log })
          session_gen
          (list_size (0 -- 4) (pair small_nat (list_size (0 -- 3) edit_gen)));
        map2
          (fun session batches -> Protocol.Closed { session; batches })
          session_gen small_nat;
        map3
          (fun (sessions, requests) ((edits, applies), (busy, coalesced))
               ((errors, uptime_s), peak_rss_kb) ->
            Protocol.Server_stats
              { sessions; requests; edits; applies; busy; coalesced; errors;
                uptime_s; peak_rss_kb })
          (pair small_nat small_nat)
          (pair (pair small_nat small_nat) (pair small_nat small_nat))
          (pair (pair small_nat finite_float) (option small_nat));
        oneofl [ Protocol.Pong; Protocol.Shutdown_ack ];
        map2
          (fun code message -> Protocol.Failed { code; message })
          error_code_gen
          (oneofl [ ""; "nope"; "cell 17 out of range"; "a \"quoted\" part" ]) ])

let qc_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request JSON round-trip (exact)"
    (QCheck.make request_gen) (fun r ->
      let line = Protocol.request_to_line r in
      match Protocol.request_of_line line with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s on %s" m line
      | Ok r' ->
        r' = r && Protocol.request_to_line r' = line)

let qc_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response JSON round-trip (exact)"
    (QCheck.make response_gen) (fun r ->
      let line = Protocol.response_to_line r in
      match Protocol.response_of_line line with
      | Error m -> QCheck.Test.fail_reportf "decode failed: %s on %s" m line
      | Ok r' ->
        r' = r && Protocol.response_to_line r' = line)

(* ---------- malformed-input corpus ---------- *)

let malformed_corpus =
  [ "";
    "{";
    "{\"op\"";
    "{\"op\":\"edit\",\"session\":\"a\"";  (* truncated frame *)
    "[1,2";
    "42";
    "\"just a string\"";
    "null";
    "{}";
    "{\"op\":\"frobnicate\"}";  (* unknown op *)
    "{\"op\":42}";
    "{\"op\":\"edit\"}";  (* missing fields *)
    "{\"op\":\"edit\",\"session\":7,\"edits\":[]}";
    "{\"op\":\"edit\",\"session\":\"a\",\"edits\":{}}";
    "{\"op\":\"edit\",\"session\":\"a\",\"edits\":[{\"op\":\"move\"}]}";
    "{\"op\":\"query\",\"session\":\"a\",\"what\":\"everything\"}";
    "{\"op\":\"open\",\"session\":\"\",\"bench\":\"fft_2\"}";  (* bad name *)
    "{\"op\":\"open\",\"session\":\"x\",\"bench\":\"no_such_bench\"}";
    String.concat "" (List.init 600 (fun _ -> "["))
    ^ String.concat "" (List.init 600 (fun _ -> "]"));  (* nesting bomb *)
    "{\"op\":\"edit\",\"session\":\"a\",\"edits\":[{\"op\":\"move\",\"cell\":0,\
     \"x\":1e999,\"y\":0}]}" (* overflows to inf *) ]

let test_malformed_corpus () =
  let server = Server.create () in
  ignore (open_ok server "a" 1);
  let xs0, ys0 = snapshot server "a" in
  (* every corpus line gets exactly one clean, parsable error reply *)
  List.iter
    (fun line ->
      let reply = Server.handle_line server line in
      match Protocol.response_of_line reply with
      | Ok (Protocol.Failed _) -> ()
      | Ok r ->
        Alcotest.failf "corpus line %S got non-error reply %s" line
          (Protocol.response_to_line r)
      | Error m -> Alcotest.failf "unparsable reply %S for %S: %s" reply line m)
    malformed_corpus;
  (* no session corruption: placement untouched, session still serves *)
  let xs1, ys1 = snapshot server "a" in
  check_bits_equal "placement after corpus"
    (Placement.make ~xs:xs0 ~ys:ys0)
    (Placement.make ~xs:xs1 ~ys:ys1);
  (match
     Server.handle_request server
       (Edit_batch
          { session = "a";
            edits = [ Edit.Move { cell = 0; x = xs0.(1); y = ys0.(1) } ] })
   with
  | Protocol.Edited { stats; _ } ->
    Alcotest.(check bool) "edit after corpus converged" true
      stats.Incr.converged
  | r -> Alcotest.failf "edit after corpus failed: %s" (Protocol.response_to_line r));
  check_replay_matches server "a" 1

(* ---------- Incr busy guard (regression) ---------- *)

let test_incr_busy_guard () =
  let design = local_design 5 in
  let n = Design.num_cells design in
  let session = Incr.create ~config:Config.default design in
  let xs = design.Design.global.Placement.xs
  and ys = design.Design.global.Placement.ys in
  let batches =
    List.init 12 (fun b ->
        List.init
          (max 1 (n / 10))
          (fun i ->
            let cell = (b + (7 * i)) mod n in
            Edit.Move
              { cell;
                x = xs.(cell) +. (if b land 1 = 0 then 2.0 else -2.0);
                y = ys.(cell) }))
  in
  (* The prober must run WHILE an apply is in flight. Systhreads share
     the runtime lock and pure-OCaml applies barely release it, so a
     second systhread almost never overlaps one — a second *domain* is
     OS-preempted mid-apply even on one core. The main thread flags each
     apply; the prober probes only during that window, paced by short
     sleeps (an "empty" apply is a full solve, so a free-running probe
     loop would hold the claim and starve the real work). Whichever side
     loses the claim race observes the typed `Busy — that observation is
     the regression being pinned. *)
  let applies_done = Atomic.make false in
  let in_flight = Atomic.make false in
  let main_busy = Atomic.make 0 in
  let prober_busy = Atomic.make 0 in
  let prober =
    Domain.spawn (fun () ->
        while
          (not (Atomic.get applies_done))
          && Atomic.get prober_busy = 0
          && Atomic.get main_busy = 0
        do
          if Atomic.get in_flight then begin
            match Incr.try_apply session [] with
            | Error `Busy -> Atomic.incr prober_busy
            | Ok _ -> ()
            (* a no-op apply: the probe won a race window; placement is
               unchanged (warm start re-converges to the same solution) *)
          end
          else Unix.sleepf 0.0002
        done)
  in
  List.iter
    (fun b ->
      let rec go () =
        Atomic.set in_flight true;
        match Incr.try_apply session b with
        | Ok _ -> Atomic.set in_flight false
        | Error `Busy ->
          Atomic.set in_flight false;
          Atomic.incr main_busy;
          Unix.sleepf 0.0005;
          go ()
      in
      go ())
    batches;
  Atomic.set applies_done true;
  Domain.join prober;
  let saw_busy = Atomic.get main_busy + Atomic.get prober_busy > 0 in
  Alcotest.(check bool) "observed `Busy during concurrent apply" true saw_busy;
  Alcotest.(check bool) "session free after join" false (Incr.busy session);
  (* the guard kept the session exactly on the serial trajectory *)
  let control = Incr.create ~config:Config.default (local_design 5) in
  List.iter (fun b -> ignore (Incr.apply control b)) batches;
  check_bits_equal "busy-guarded session vs serial control"
    (Incr.legal control) (Incr.legal session)

(* ---------- concurrency stress: 8 clients, 3 sessions ---------- *)

let test_concurrent_stress () =
  let server = Server.create () in
  let seeds = [ ("sa", 1); ("sb", 2); ("sc", 3) ] in
  let cells =
    List.map (fun (name, seed) -> open_ok server name seed) seeds
  in
  let snaps =
    Array.of_list
      (List.map2
         (fun (name, _) n ->
           let xs, ys = snapshot server name in
           (name, xs, ys, n))
         seeds cells)
  in
  let num_sessions = Array.length snaps in
  let num_clients = 8 and batches_each = 6 in
  let failures = Atomic.make 0 in
  let client id =
    let rng = Mclh_benchgen.Rng.create (400 + id) in
    for b = 0 to batches_each - 1 do
      let name, xs, ys, n = snaps.((id + b) mod num_sessions) in
      (* moves stay on low ids so concurrent inserts (which only grow
         the design) never invalidate a batch *)
      let moves =
        List.init 3 (fun _ ->
            let cell = Mclh_benchgen.Rng.int rng (n / 2) in
            Edit.Move
              { cell;
                x = Float.max 0.0 (xs.(cell) +. (3.0 *. Mclh_benchgen.Rng.gaussian rng));
                y = ys.(cell) })
      in
      let edits =
        if (id + b) mod 4 = 0 then
          (* a renumbering batch: exercises group-closing coalescing *)
          moves @ [ Edit.Insert { width = 3; height = 1; x = xs.(0); y = ys.(0) } ]
        else moves
      in
      (match Server.handle_request server (Edit_batch { session = name; edits }) with
      | Protocol.Edited _ -> ()
      | _ -> Atomic.incr failures);
      (* interleave queries with the edit traffic *)
      if b land 1 = 0 then
        match Server.handle_request server (Query { session = name; what = Q_stats }) with
        | Protocol.Session_stats _ -> ()
        | _ -> Atomic.incr failures
    done
  in
  let threads = List.init num_clients (fun id -> Thread.create client id) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no failed requests" 0 (Atomic.get failures);
  (* every session must equal its own serial replay, bit for bit *)
  List.iter (fun (name, seed) -> check_replay_matches server name seed) seeds;
  match Server.handle_request server Protocol.Stats with
  | Protocol.Server_stats { applies; edits; errors; busy; _ } ->
    Alcotest.(check int) "no server errors" 0 errors;
    Alcotest.(check int) "no busy rejections" 0 busy;
    Alcotest.(check bool) "coalescing can only reduce applies" true
      (applies <= edits);
    Alcotest.(check bool) "every batch accounted" true
      (edits = num_clients * batches_each)
  | r -> Alcotest.failf "stats failed: %s" (Protocol.response_to_line r)

(* ---------- coalescing semantics ---------- *)

let test_coalescing_semantics () =
  let server = Server.create () in
  ignore (open_ok server "c" 1);
  let xs, ys = snapshot server "c" in
  let mv i dx =
    Protocol.Edit_batch
      { session = "c";
        edits = [ Edit.Move { cell = i; x = xs.(i) +. dx; y = ys.(i) } ] }
  in
  let ins =
    Protocol.Edit_batch
      { session = "c";
        edits = [ Edit.Insert { width = 2; height = 1; x = xs.(0); y = ys.(0) } ] }
  in
  (* a pipelined run of move-only batches coalesces into one apply *)
  let rs = Server.handle_requests server [ mv 0 1.0; mv 1 1.0; mv 2 1.0 ] in
  let seqs =
    List.map
      (function
        | Protocol.Edited { seq; coalesced; _ } ->
          Alcotest.(check int) "group size" 3 coalesced;
          seq
        | r -> Alcotest.failf "expected Edited, got %s" (Protocol.response_to_line r))
      rs
  in
  Alcotest.(check (list int)) "one shared seq" [ 1; 1; 1 ] seqs;
  (* a renumbering batch may ride along last but closes its group *)
  let rs = Server.handle_requests server [ mv 0 (-1.0); ins; mv 1 (-1.0) ] in
  (match
     List.map
       (function
         | Protocol.Edited { seq; coalesced; _ } -> (seq, coalesced)
         | r -> Alcotest.failf "expected Edited, got %s" (Protocol.response_to_line r))
       rs
   with
  | [ (s1, c1); (s2, c2); (s3, c3) ] ->
    Alcotest.(check (list int)) "insert closes group" [ 2; 2; 1 ] [ c1; c2; c3 ];
    Alcotest.(check bool) "rider shares seq" true (s1 = s2 && s3 = s2 + 1)
  | _ -> Alcotest.fail "wrong reply count");
  (* the log records merged groups; replay is still bit-identical *)
  check_replay_matches server "c" 1

(* ---------- admission control ---------- *)

let test_admission_control () =
  (* max_inflight = 0: every edit is refused with busy, nothing stalls,
     and non-edit requests still work *)
  let server =
    Server.create ~config:{ Server.default_config with max_inflight = 0 } ()
  in
  ignore (open_ok server "a" 1);
  (match
     Server.handle_request server
       (Edit_batch
          { session = "a"; edits = [ Edit.Move { cell = 0; x = 1.0; y = 0.0 } ] })
   with
  | Protocol.Failed { code = Protocol.Busy; _ } -> ()
  | r -> Alcotest.failf "expected busy, got %s" (Protocol.response_to_line r));
  (match Server.handle_request server Protocol.Ping with
  | Protocol.Pong -> ()
  | r -> Alcotest.failf "ping failed: %s" (Protocol.response_to_line r));
  (match Server.handle_request server Protocol.Stats with
  | Protocol.Server_stats { busy; applies; _ } ->
    Alcotest.(check int) "busy counted" 1 busy;
    Alcotest.(check int) "nothing applied" 0 applies
  | r -> Alcotest.failf "stats failed: %s" (Protocol.response_to_line r));
  (* the refused batch left the session on its initial placement *)
  check_replay_matches server "a" 1;
  (* max_inflight = 1: of a pipelined pair, the second is refused *)
  let server =
    Server.create ~config:{ Server.default_config with max_inflight = 1 } ()
  in
  ignore (open_ok server "a" 1);
  let xs, ys = snapshot server "a" in
  let mv i =
    Protocol.Edit_batch
      { session = "a";
        edits = [ Edit.Move { cell = i; x = xs.(i) +. 1.0; y = ys.(i) } ] }
  in
  (match Server.handle_requests server [ mv 0; mv 1 ] with
  | [ Protocol.Edited _; Protocol.Failed { code = Protocol.Busy; _ } ] -> ()
  | rs ->
    Alcotest.failf "expected [edited; busy], got %s"
      (String.concat " | " (List.map Protocol.response_to_line rs)))

(* ---------- session lifecycle ---------- *)

let test_session_lifecycle () =
  let server =
    Server.create ~config:{ Server.default_config with max_sessions = 2 } ()
  in
  ignore (open_ok server "a" 1);
  (match Server.handle_request server (Open { session = "a"; source = generated 2 }) with
  | Protocol.Failed { code = Protocol.Session_exists; _ } -> ()
  | r -> Alcotest.failf "expected session_exists, got %s" (Protocol.response_to_line r));
  ignore (open_ok server "b" 2);
  (match Server.handle_request server (Open { session = "c"; source = generated 3 }) with
  | Protocol.Failed { code = Protocol.Too_many_sessions; _ } -> ()
  | r -> Alcotest.failf "expected too_many_sessions, got %s" (Protocol.response_to_line r));
  (match Server.handle_request server (Close { session = "a" }) with
  | Protocol.Closed { batches; _ } -> Alcotest.(check int) "no batches" 0 batches
  | r -> Alcotest.failf "close failed: %s" (Protocol.response_to_line r));
  (match Server.handle_request server (Query { session = "a"; what = Q_cells }) with
  | Protocol.Failed { code = Protocol.Unknown_session; _ } -> ()
  | r -> Alcotest.failf "expected unknown_session, got %s" (Protocol.response_to_line r));
  Alcotest.(check int) "one session left" 1 (Server.num_sessions server);
  (* freed capacity is reusable *)
  ignore (open_ok server "c" 3);
  (* report query carries a valid run-report document *)
  match Server.handle_request server (Query { session = "c"; what = Q_report }) with
  | Protocol.Report { report; _ } -> (
    match Mclh_obs.Run_report.validate report with
    | Ok () -> ()
    | Error m -> Alcotest.failf "invalid run report: %s" m)
  | r -> Alcotest.failf "report failed: %s" (Protocol.response_to_line r)

(* ---------- live socket: protocol, resilience, shutdown ---------- *)

let test_socket_smoke () =
  let server = Server.create () in
  let path = Filename.temp_file "mclh_serve" ".sock" in
  Sys.remove path;
  let addr = Server.start server (Protocol.Unix_sock path) in
  let c = Client.connect addr in
  (match Client.request c Protocol.Ping with
  | Protocol.Pong -> ()
  | r -> Alcotest.failf "ping failed: %s" (Protocol.response_to_line r));
  (match Client.request c (Open { session = "live"; source = generated 1 }) with
  | Protocol.Opened { legal; _ } -> Alcotest.(check bool) "legal" true legal
  | r -> Alcotest.failf "open failed: %s" (Protocol.response_to_line r));
  (* malformed line on the wire: clean error, connection survives *)
  Client.send_line c "{\"op\":";
  (match Client.recv_line c with
  | Some line -> (
    match Protocol.response_of_line line with
    | Ok (Protocol.Failed { code = Protocol.Bad_request; _ }) -> ()
    | _ -> Alcotest.failf "expected bad_request, got %s" line)
  | None -> Alcotest.fail "connection dropped on malformed line");
  (* crash injection: another client dies mid-frame (no newline);
     the daemon must keep serving everyone else *)
  let domain, sockaddr = Server.sockaddr_of addr in
  let dying = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  Unix.connect dying sockaddr;
  let partial = Bytes.of_string "{\"op\":\"edit\",\"session\":\"live\"" in
  ignore (Unix.write dying partial 0 (Bytes.length partial));
  Unix.close dying;
  (match Client.request c (Query { session = "live"; what = Q_stats }) with
  | Protocol.Session_stats _ -> ()
  | r -> Alcotest.failf "daemon hurt by dying client: %s" (Protocol.response_to_line r));
  (* graceful shutdown over the wire *)
  (match Client.request c Protocol.Shutdown with
  | Protocol.Shutdown_ack -> ()
  | r -> Alcotest.failf "shutdown failed: %s" (Protocol.response_to_line r));
  Client.close c;
  Server.stop server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* ---------- the mclh serve daemon, as its own process ---------- *)

(* reap [pid] within [timeout] seconds; None if it is still running *)
let wait_exit ?(timeout = 10.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      go ()
    | 0, _ -> None
    | _, status -> Some status
  in
  go ()

let test_cli_daemon () =
  if not (Cli.available ()) then Alcotest.skip ()
  else begin
    let path = Filename.temp_file "mclh_daemon" ".sock" in
    Sys.remove path;
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process Cli.exe
        [| Cli.exe; "serve"; "--socket"; path |]
        null null null
    in
    Unix.close null;
    let reaped = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !reaped then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end)
      (fun () ->
        let rec await_socket tries =
          if Sys.file_exists path then ()
          else if tries = 0 then Alcotest.fail "daemon never bound its socket"
          else begin
            Unix.sleepf 0.05;
            await_socket (tries - 1)
          end
        in
        await_socket 200;
        let addr = Protocol.Unix_sock path in
        let c = Client.connect addr in
        let unexpected what r =
          Alcotest.failf "%s: %s" what (Protocol.response_to_line r)
        in
        (match Client.request c Protocol.Ping with
        | Protocol.Pong -> ()
        | r -> unexpected "ping" r);
        (match Client.request c (Open { session = "ci"; source = generated 1 }) with
        | Protocol.Opened { legal; _ } -> Alcotest.(check bool) "legal" true legal
        | r -> unexpected "open" r);
        (match
           Client.request c
             (Edit_batch
                { session = "ci";
                  edits =
                    [ Edit.Move { cell = 3; x = 40.0; y = 2.5 };
                      Edit.Resize { cell = 9; width = 7 } ] })
         with
        | Protocol.Edited { seq; stats; _ } ->
          Alcotest.(check int) "first apply" 1 seq;
          Alcotest.(check bool) "converged" true stats.Incr.converged
        | r -> unexpected "edit" r);
        (match Client.request c (Query { session = "ci"; what = Q_cells }) with
        | Protocol.Cells { xs; ys; _ } ->
          Alcotest.(check bool) "cells returned" true
            (Array.length xs = Array.length ys && Array.length xs > 0)
        | r -> unexpected "query" r);
        (* another client dies mid-frame (no newline): the daemon keeps
           serving the first one *)
        let domain, sockaddr = Server.sockaddr_of addr in
        let dying = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
        Unix.connect dying sockaddr;
        let partial = Bytes.of_string "{\"op\":\"edit\",\"session\":\"ci\"" in
        ignore (Unix.write dying partial 0 (Bytes.length partial));
        Unix.close dying;
        (* an unknown op on a live connection: a clean error, no hangup *)
        Client.send_line c "{\"op\":\"frobnicate\"}";
        (match Option.map Protocol.response_of_line (Client.recv_line c) with
        | Some (Ok (Protocol.Failed { code = Protocol.Unknown_op; _ })) -> ()
        | _ -> Alcotest.fail "expected an unknown_op reply");
        (match Client.request c (Close { session = "ci" }) with
        | Protocol.Closed { batches; _ } ->
          Alcotest.(check int) "one batch applied" 1 batches
        | r -> unexpected "close" r);
        (match Client.request c Protocol.Stats with
        | Protocol.Server_stats { sessions; errors; _ } ->
          Alcotest.(check int) "no session left" 0 sessions;
          Alcotest.(check bool) "error counted" true (errors >= 1)
        | r -> unexpected "stats" r);
        (match Client.request c Protocol.Shutdown with
        | Protocol.Shutdown_ack -> ()
        | r -> unexpected "shutdown" r);
        Client.close c;
        match wait_exit pid with
        | Some (Unix.WEXITED 0) -> reaped := true
        | Some _ ->
          reaped := true;
          Alcotest.fail "daemon exited abnormally"
        | None -> Alcotest.fail "daemon still running after shutdown")
  end

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        List.map QCheck_alcotest.to_alcotest
          [ qc_request_roundtrip; qc_response_roundtrip ] );
      ( "hardening",
        [ Alcotest.test_case "malformed corpus" `Quick test_malformed_corpus ] );
      ( "incr",
        [ Alcotest.test_case "busy guard" `Quick test_incr_busy_guard ] );
      ( "concurrency",
        [ Alcotest.test_case "8 clients x 3 sessions bit-identical" `Quick
            test_concurrent_stress ] );
      ( "semantics",
        [ Alcotest.test_case "coalescing" `Quick test_coalescing_semantics;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "session lifecycle" `Quick test_session_lifecycle ] );
      ( "socket",
        [ Alcotest.test_case "live daemon smoke" `Quick test_socket_smoke;
          Alcotest.test_case "mclh serve process" `Quick test_cli_daemon ] ) ]
