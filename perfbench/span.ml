(* In-memory span and counter recorder for the traced run.

   The benchmark wraps its own calls into each layer's public functions
   in [with_]; nothing inside the program is instrumented. With tracing
   off, [with_] is a single branch around the call. Spans nest per
   thread; a span that starts on one thread and ends on another (a
   pipelined request) is recorded whole with [record]. *)

let on = ref false
let lock = Mutex.create ()
let next_id = ref 0
let recorded : Stats.span list ref = ref []
let open_spans : (int, int list) Hashtbl.t = Hashtbl.create 8
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let now = Mclh_par.Clock.now

let reset ~enabled =
  on := enabled;
  next_id := 0;
  recorded := [];
  Hashtbl.reset open_spans;
  Hashtbl.reset counters

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* innermost open span of the calling thread, -1 at top level *)
let current () =
  if not !on then -1
  else
    locked (fun () ->
        match Hashtbl.find_opt open_spans (Thread.id (Thread.self ())) with
        | Some (id :: _) -> id
        | _ -> -1)

let with_ name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans tid) in
          let parent = match stack with p :: _ -> p | [] -> -1 in
          Hashtbl.replace open_spans tid (id :: stack);
          (id, parent))
    in
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        locked (fun () ->
            (match Hashtbl.find_opt open_spans tid with
            | Some (_ :: rest) -> Hashtbl.replace open_spans tid rest
            | _ -> ());
            recorded := { Stats.id; name; parent; start; stop } :: !recorded))
  end

(* a finished span under [parent]; returns its id, -1 with tracing off *)
let record ~parent name ~start ~stop =
  if not !on then -1
  else
    locked (fun () ->
        let id = !next_id in
        incr next_id;
        recorded := { Stats.id; name; parent; start; stop } :: !recorded;
        id)

(* accumulate a counter (a count or a quantity, not a time) *)
let add name v =
  if !on then
    locked (fun () ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt counters name) in
        Hashtbl.replace counters name (prev +. v))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)
let spans () = List.rev !recorded

let to_json () =
  let open Mclh_report.Json in
  List
    (List.map
       (fun (s : Stats.span) ->
         Obj
           [ ("id", Int s.Stats.id);
             ("name", String s.Stats.name);
             ("parent", Int s.Stats.parent);
             ("start", Float s.Stats.start);
             ("end", Float s.Stats.stop) ])
       (spans ()))
