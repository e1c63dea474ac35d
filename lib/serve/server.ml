(* The serving core. See server.mli for the concurrency model.

   Lock order: a thread never holds two of [table], [meta], [state_lock]
   at once except [state_lock] -> [meta] (session-stats query). The
   drainer takes [meta] and [state_lock] strictly alternately. *)

open Mclh_circuit
open Mclh_core
open Mclh_report
module Edit = Mclh_incr.Edit
module Incr = Mclh_incr.Incr
module Obs = Mclh_obs.Obs
module Run_report = Mclh_obs.Run_report

type config = {
  incr_config : Config.t;
  max_sessions : int;
  max_inflight : int;
}

let default_config =
  {
    incr_config = Config.default;
    max_sessions = 64;
    max_inflight = 32;
  }

(* largest merged group of queued batches *)
let max_coalesce = 64

(* One queued edit batch plus the mailbox its requester blocks on. *)
type pending = {
  edits : Edit.t list;
  renumbers : bool;  (* contains an insert or delete *)
  mail_m : Mutex.t;
  mail_c : Condition.t;
  mutable reply : Protocol.response option;
}

type session_state = Building | Ready of Incr.t

type session = {
  name : string;
  obs : Obs.t;
  state_lock : Mutex.t;  (* serializes Incr applies and queries *)
  mutable state : session_state;
  meta : Mutex.t;  (* protects pending, draining, seq, log *)
  cond : Condition.t;  (* signaled when a drain quiesces *)
  pending : pending Queue.t;
  mutable draining : bool;
  mutable seq : int;  (* applies completed *)
  mutable log : (int * Edit.t list) list;  (* newest first *)
}

type t = {
  config : config;
  sessions : (string, session) Hashtbl.t;
  table : Mutex.t;
  inflight : int Atomic.t;
  requests : int Atomic.t;
  edits_requested : int Atomic.t;
  applies : int Atomic.t;
  busy_rejections : int Atomic.t;
  coalesced : int Atomic.t;
  errors : int Atomic.t;
  started_at : float;
  stopping : bool Atomic.t;
  stop_m : Mutex.t;
  stop_c : Condition.t;
  mutable listener : Unix.file_descr option;
  mutable listener_path : string option;  (* unix socket to unlink *)
  mutable accept_thread : Thread.t option;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  mutable conn_threads : Thread.t list;
  conns_lock : Mutex.t;
}

let create ?(config = default_config) () =
  {
    config;
    sessions = Hashtbl.create 16;
    table = Mutex.create ();
    inflight = Atomic.make 0;
    requests = Atomic.make 0;
    edits_requested = Atomic.make 0;
    applies = Atomic.make 0;
    busy_rejections = Atomic.make 0;
    coalesced = Atomic.make 0;
    errors = Atomic.make 0;
    started_at = Unix.gettimeofday ();
    stopping = Atomic.make false;
    stop_m = Mutex.create ();
    stop_c = Condition.create ();
    listener = None;
    listener_path = None;
    accept_thread = None;
    conns = Hashtbl.create 16;
    conn_threads = [];
    conns_lock = Mutex.create ();
  }

let config t = t.config

let num_sessions t =
  Mutex.lock t.table;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.table;
  n

let fail code message = Protocol.Failed { code; message }
let unknown_session name = fail Protocol.Unknown_session ("no session " ^ name)

(* ------------------------------------------------------------------ *)
(* sessions: open / close / query                                      *)

let valid_name s =
  s <> "" && String.length s <= 256
  && String.for_all (fun c -> c <> '\n' && c <> '\r') s

let mk_session name =
  {
    name;
    obs = Obs.create ();
    state_lock = Mutex.create ();
    state = Building;
    meta = Mutex.create ();
    cond = Condition.create ();
    pending = Queue.create ();
    draining = false;
    seq = 0;
    log = [];
  }

let build_incr t s source =
  let design =
    match (source : Protocol.open_source) with
    | From_file { path } -> Io.read_design ~path
    | Generated { bench; scale; seed; blockages; tall } ->
      let spec = Mclh_benchgen.Spec.(scaled scale (find bench)) in
      let options =
        {
          Mclh_benchgen.Generate.default_options with
          seed;
          blockage_fraction = blockages;
          (* blockage-rich instances are the ECO regime (many short
             segments, small components), cut into 32 rectangles *)
          blockage_count =
            (if blockages > 0.0 then 32
             else Mclh_benchgen.Generate.default_options.blockage_count);
          tall_cell_fraction = tall;
        }
      in
      (Mclh_benchgen.Generate.generate ~options spec).design
  in
  Incr.create ~config:t.config.incr_config ~obs:s.obs design

let handle_open t name source =
  if not (valid_name name) then fail Protocol.Bad_request "invalid session name"
  else begin
    Mutex.lock t.table;
    let reservation =
      if Hashtbl.mem t.sessions name then
        Result.Error (fail Protocol.Session_exists ("session exists: " ^ name))
      else if Hashtbl.length t.sessions >= t.config.max_sessions then
        Result.Error
          (fail Protocol.Too_many_sessions
             (Printf.sprintf "session cap %d reached" t.config.max_sessions))
      else begin
        let s = mk_session name in
        Hashtbl.replace t.sessions name s;
        Ok s
      end
    in
    Mutex.unlock t.table;
    match reservation with
    | Result.Error r -> r
    | Ok s -> (
      let unreserve () =
        Mutex.lock t.table;
        Hashtbl.remove t.sessions name;
        Mutex.unlock t.table
      in
      let t0 = Unix.gettimeofday () in
      match build_incr t s source with
      | exception Not_found ->
        unreserve ();
        fail Protocol.Rejected "unknown benchmark"
      | exception (Failure m | Invalid_argument m | Sys_error m) ->
        unreserve ();
        fail Protocol.Rejected m
      | incr ->
        let init_s = Unix.gettimeofday () -. t0 in
        Mutex.lock s.state_lock;
        s.state <- Ready incr;
        Mutex.unlock s.state_lock;
        let design = Incr.design incr in
        Protocol.Opened
          {
            session = name;
            cells = Design.num_cells design;
            legal = Legality.is_legal design (Incr.legal incr);
            init_s;
          })
  end

let find_session t name =
  Mutex.lock t.table;
  let s = Hashtbl.find_opt t.sessions name in
  Mutex.unlock t.table;
  s

let handle_close t name =
  Mutex.lock t.table;
  let s = Hashtbl.find_opt t.sessions name in
  if s <> None then Hashtbl.remove t.sessions name;
  Mutex.unlock t.table;
  match s with
  | None -> unknown_session name
  | Some s ->
    (* Quiesce: batches admitted before the close finish applying and
       get their replies; new lookups already miss the table. *)
    Mutex.lock s.meta;
    while s.draining do
      Condition.wait s.cond s.meta
    done;
    let batches = s.seq in
    Mutex.unlock s.meta;
    Protocol.Closed { session = name; batches }

let handle_query t name what =
  match find_session t name with
  | None -> unknown_session name
  | Some s ->
    Mutex.lock s.state_lock;
    let r =
      match s.state with
      | Building -> fail Protocol.Busy "session is still opening"
      | Ready incr -> (
        match (what : Protocol.query_what) with
        | Q_cells ->
          let p = Incr.legal incr in
          Protocol.Cells
            {
              session = name;
              xs = Array.copy p.Placement.xs;
              ys = Array.copy p.Placement.ys;
            }
        | Q_stats ->
          Mutex.lock s.meta;
          let applies = s.seq and pending = Queue.length s.pending in
          Mutex.unlock s.meta;
          Protocol.Session_stats
            {
              session = name;
              cells = Design.num_cells (Incr.design incr);
              batches = Incr.num_batches incr;
              applies;
              cache_entries = Incr.cache_entries incr;
              pending;
            }
        | Q_report ->
          let meta =
            [
              ("session", Json.String name);
              ("cells", Json.Int (Design.num_cells (Incr.design incr)));
            ]
          in
          Protocol.Report { session = name; report = Run_report.to_json ~meta s.obs }
        | Q_log ->
          Mutex.lock s.meta;
          let log = List.rev s.log in
          Mutex.unlock s.meta;
          Protocol.Log { session = name; log })
    in
    Mutex.unlock s.state_lock;
    r

(* ------------------------------------------------------------------ *)
(* edit batches: enqueue, drain, coalesce                              *)

let renumbers edits =
  List.exists
    (function Edit.Insert _ | Edit.Delete _ -> true | Edit.Move _ | Edit.Resize _ -> false)
    edits

let mk_pending edits =
  {
    edits;
    renumbers = renumbers edits;
    mail_m = Mutex.create ();
    mail_c = Condition.create ();
    reply = None;
  }

let deliver p r =
  Mutex.lock p.mail_m;
  p.reply <- Some r;
  Condition.signal p.mail_c;
  Mutex.unlock p.mail_m

let await p =
  Mutex.lock p.mail_m;
  while p.reply = None do
    Condition.wait p.mail_c p.mail_m
  done;
  let r = Option.get p.reply in
  Mutex.unlock p.mail_m;
  r

(* Pop the next coalescible group (meta held). A batch may join while
   the group so far is renumbering-free; a renumbering batch joins last
   and closes the group — it only changes how *later* batches' ids
   resolve, so ids of everything merged still refer to the design at
   group start, which is what Incr.apply's batch semantics require. *)
let take_group q =
  if Queue.is_empty q then []
  else begin
    let first = Queue.pop q in
    let group = ref [ first ] in
    let n = ref 1 in
    let closed = ref first.renumbers in
    while (not !closed) && !n < max_coalesce && not (Queue.is_empty q) do
      let next = Queue.pop q in
      group := next :: !group;
      incr n;
      if next.renumbers then closed := true
    done;
    List.rev !group
  end

let rec drain t s =
  Mutex.lock s.meta;
  let group = take_group s.pending in
  if group = [] then begin
    s.draining <- false;
    Condition.broadcast s.cond;
    Mutex.unlock s.meta
  end
  else begin
    Mutex.unlock s.meta;
    let merged = List.concat_map (fun p -> p.edits) group in
    let k = List.length group in
    Mutex.lock s.state_lock;
    let outcome =
      match s.state with
      | Building -> Result.Error (Protocol.Internal, "session is still opening")
      | Ready incr -> (
        try Ok (Incr.apply incr merged) with
        | Invalid_argument m | Failure m -> Result.Error (Protocol.Rejected, m)
        | Incr.Busy ->
          (* unreachable: state_lock serializes applies *)
          Result.Error (Protocol.Internal, "session busy under state lock")
        | e -> Result.Error (Protocol.Internal, Printexc.to_string e))
    in
    Mutex.unlock s.state_lock;
    (match outcome with
    | Ok stats ->
      Atomic.incr t.applies;
      if k > 1 then ignore (Atomic.fetch_and_add t.coalesced (k - 1));
      Mutex.lock s.meta;
      s.seq <- s.seq + 1;
      let seq = s.seq in
      s.log <- (seq, merged) :: s.log;
      Mutex.unlock s.meta;
      List.iter
        (fun p ->
          deliver p
            (Protocol.Edited { session = s.name; seq; coalesced = k; stats }))
        group
    | Result.Error (code, message) ->
      List.iter (fun p -> deliver p (fail code message)) group);
    drain t s
  end

(* Handle a pipelined run of edit batches for one session: admit each,
   enqueue the admitted ones together (so they can coalesce), drain if
   we claimed the drainer role, and collect replies in request order. *)
let handle_edits t name batches =
  match find_session t name with
  | None -> List.map (fun _ -> unknown_session name) batches
  | Some s ->
    let building =
      Mutex.lock s.state_lock;
      let b = match s.state with Building -> true | Ready _ -> false in
      Mutex.unlock s.state_lock;
      b
    in
    if building then
      List.map (fun _ -> fail Protocol.Busy "session is still opening") batches
    else begin
      let entries =
        List.map
          (fun edits ->
            if Atomic.fetch_and_add t.inflight 1 < t.config.max_inflight then
              `Admitted (mk_pending edits)
            else begin
              Atomic.decr t.inflight;
              `Refused
            end)
          batches
      in
      let admitted =
        List.filter_map (function `Admitted p -> Some p | `Refused -> None) entries
      in
      let drainer =
        admitted <> []
        && begin
             Mutex.lock s.meta;
             List.iter (fun p -> Queue.push p s.pending) admitted;
             let claim = not s.draining in
             if claim then s.draining <- true;
             Mutex.unlock s.meta;
             claim
           end
      in
      if drainer then drain t s;
      List.map
        (function
          | `Refused ->
            fail Protocol.Busy
              (Printf.sprintf "server at max in-flight edit batches (%d)"
                 t.config.max_inflight)
          | `Admitted p ->
            let r = await p in
            Atomic.decr t.inflight;
            r)
        entries
    end

(* ------------------------------------------------------------------ *)
(* server-level requests                                               *)

let server_stats t =
  Protocol.Server_stats
    {
      sessions = num_sessions t;
      requests = Atomic.get t.requests;
      edits = Atomic.get t.edits_requested;
      applies = Atomic.get t.applies;
      busy = Atomic.get t.busy_rejections;
      coalesced = Atomic.get t.coalesced;
      errors = Atomic.get t.errors;
      uptime_s = Unix.gettimeofday () -. t.started_at;
      peak_rss_kb = Obs.peak_rss_kb ();
    }

let request_stop t =
  Atomic.set t.stopping true;
  Mutex.lock t.stop_m;
  Condition.broadcast t.stop_c;
  Mutex.unlock t.stop_m

let shutdown = request_stop

let wait t =
  Mutex.lock t.stop_m;
  while not (Atomic.get t.stopping) do
    Condition.wait t.stop_c t.stop_m
  done;
  Mutex.unlock t.stop_m

let handle_one t (req : Protocol.request) =
  match req with
  | Ping -> Protocol.Pong
  | Stats -> server_stats t
  | Shutdown ->
    request_stop t;
    Protocol.Shutdown_ack
  | _ when Atomic.get t.stopping ->
    fail Protocol.Shutting_down "server is shutting down"
  | Open { session; source } -> handle_open t session source
  | Query { session; what } -> handle_query t session what
  | Close { session } -> handle_close t session
  | Edit_batch _ -> assert false (* routed through handle_edits *)

(* Response-type accounting, applied at the single exit point. *)
let count t (r : Protocol.response) =
  (match r with
  | Failed { code = Busy; _ } -> Atomic.incr t.busy_rejections
  | Failed _ -> Atomic.incr t.errors
  | _ -> ());
  r

let shutting_down_reply = fail Protocol.Shutting_down "server is shutting down"

(* Every entry point funnels here: group consecutive edit batches for
   one session so a pipelined client's run is enqueued together. *)
let handle_parsed t (items : (Protocol.request, string) result list) =
  let rec go items acc =
    match items with
    | [] -> List.rev acc
    | Result.Error msg :: rest ->
      Atomic.incr t.requests;
      let code =
        if String.length msg >= 10 && String.sub msg 0 10 = "unknown op" then
          Protocol.Unknown_op
        else Protocol.Bad_request
      in
      go rest (count t (fail code msg) :: acc)
    | Ok (Protocol.Edit_batch { session; edits }) :: rest ->
      let rec run batches items =
        match items with
        | Ok (Protocol.Edit_batch { session = s2; edits }) :: rest
          when s2 = session ->
          run (edits :: batches) rest
        | _ -> (List.rev batches, items)
      in
      let batches, rest = run [ edits ] rest in
      List.iter
        (fun _ ->
          Atomic.incr t.requests;
          Atomic.incr t.edits_requested)
        batches;
      let replies =
        if Atomic.get t.stopping then
          List.map (fun _ -> shutting_down_reply) batches
        else handle_edits t session batches
      in
      go rest (List.rev_append (List.map (count t) replies) acc)
    | Ok req :: rest ->
      Atomic.incr t.requests;
      go rest (count t (handle_one t req) :: acc)
  in
  go items []

let handle_requests t reqs =
  handle_parsed t (List.map (fun r -> Ok r) reqs)

let handle_request t req =
  match handle_requests t [ req ] with [ r ] -> r | _ -> assert false

let handle_line t line =
  match handle_parsed t [ Protocol.request_of_line line ] with
  | [ r ] -> Protocol.response_to_line r
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* socket serving                                                      *)

let sockaddr_of = function
  | Protocol.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Protocol.Tcp (host, port) ->
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    (Unix.PF_INET, Unix.ADDR_INET (addr, port))

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let split_lines s =
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | None -> (List.rev acc, String.sub s start (String.length s - start))
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
  in
  go 0 []

let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

let handle_lines t lines =
  List.map Protocol.response_to_line
    (handle_parsed t (List.map Protocol.request_of_line lines))

let conn_worker t fd =
  let buf = ref "" in
  let chunk = Bytes.create 65536 in
  (try
     let running = ref true in
     while !running do
       let n =
         try Unix.read fd chunk 0 (Bytes.length chunk)
         with Unix.Unix_error _ -> 0
       in
       if n = 0 then running := false (* EOF mid-line: discard silently *)
       else begin
         let data = !buf ^ Bytes.sub_string chunk 0 n in
         let lines, rest = split_lines data in
         buf := rest;
         let lines = List.map strip_cr lines in
         if
           String.length rest > Protocol.max_line_bytes
           || List.exists (fun l -> String.length l > Protocol.max_line_bytes) lines
         then begin
           (* framing can no longer be trusted: answer once and hang up *)
           let r =
             Protocol.response_to_line
               (fail Protocol.Bad_request "request line exceeds max_line_bytes")
           in
           ignore (count t (fail Protocol.Bad_request "oversized line"));
           (try write_all fd (r ^ "\n") with _ -> ());
           running := false
         end
         else begin
           let lines = List.filter (fun l -> l <> "") lines in
           if lines <> [] then begin
             let replies = handle_lines t lines in
             write_all fd (String.concat "" (List.map (fun r -> r ^ "\n") replies))
           end
         end
       end
     done
   with _ -> ());
  Mutex.lock t.conns_lock;
  Hashtbl.remove t.conns fd;
  Mutex.unlock t.conns_lock;
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t listener =
  while not (Atomic.get t.stopping) do
    match Unix.select [ listener ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept ~cloexec:true listener with
      | exception Unix.Unix_error _ -> () (* racing stop / transient *)
      | fd, _ ->
        Mutex.lock t.conns_lock;
        Hashtbl.replace t.conns fd ();
        let th = Thread.create (fun () -> conn_worker t fd) () in
        t.conn_threads <- th :: t.conn_threads;
        Mutex.unlock t.conns_lock)
  done;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  match t.listener_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()

let start t addr =
  if t.accept_thread <> None then invalid_arg "Server.start: already started";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain, sockaddr = sockaddr_of addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Protocol.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Protocol.Unix_sock path -> (
    t.listener_path <- Some path;
    try Unix.unlink path with Unix.Unix_error _ -> ()));
  (try
     Unix.bind fd sockaddr;
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let resolved =
    match Unix.getsockname fd with
    | Unix.ADDR_UNIX p -> Protocol.Unix_sock p
    | Unix.ADDR_INET (a, p) -> Protocol.Tcp (Unix.string_of_inet_addr a, p)
  in
  t.listener <- Some fd;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t fd) ());
  resolved

let stop t =
  request_stop t;
  (match t.accept_thread with
  | Some th ->
    Thread.join th;
    t.accept_thread <- None;
    t.listener <- None
  | None -> ());
  Mutex.lock t.conns_lock;
  Hashtbl.iter
    (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.conns;
  let workers = t.conn_threads in
  t.conn_threads <- [];
  Mutex.unlock t.conns_lock;
  List.iter Thread.join workers
