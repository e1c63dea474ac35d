(** The [mclh serve] daemon core: many named {!Mclh_incr.Incr} sessions
    behind the {!Protocol}, multiplexed over system threads.

    The server is usable entirely in-process ({!handle_request} /
    {!handle_requests} / {!handle_line}) — the test suite drives it that
    way — or over a Unix / TCP stream socket ({!start}), where every
    accepted connection gets a worker thread running the line protocol.

    {2 Concurrency model}

    Each session owns two locks. [state_lock] serializes everything that
    touches the underlying {!Mclh_incr.Incr} session (applies and
    queries) — sessions are single-threaded on the outside and the
    server is what enforces that, so the {!Mclh_incr.Incr.Busy} guard
    underneath is a belt-and-braces backstop, not the mechanism. [meta]
    protects the pending-batch queue. Edit batches are enqueued under
    [meta]; the first enqueuer becomes the {e drainer} and applies
    groups of queued batches until the queue is empty, delivering each
    waiter's reply through a per-request mailbox, so requests from many
    connections serialize per session while different sessions re-solve
    concurrently. Dirty-shard solves inside an apply still fan out over
    the shared {!Mclh_par.Pool}; concurrent sessions contend on its
    atomic busy claim and the losers take the bit-identical sequential
    path.

    {2 Admission control}

    At most [max_inflight] edit batches may be admitted (enqueued or
    applying) across all sessions; batch [max_inflight + 1] is refused
    with a [busy] reply without being enqueued. Non-edit requests are
    never refused — [stats] and [ping] must work on an overloaded
    server.

    {2 Coalescing}

    Consecutive queued batches for one session (up to 64) are merged
    into a single {!Mclh_incr.Incr.apply} while the group so far contains only moves
    and resizes; a batch containing an insert or delete renumbers cells
    (affecting how {e later} batches' ids resolve) so it may ride along
    last but closes its group. Every rider gets the same [seq] and
    [stats], with [coalesced] = group size. The applied-batch log
    (query [log]) records the merged groups actually handed to [apply];
    replaying it serially on a fresh session of the same design
    reproduces the placement bit-identically. *)

open Mclh_core

type config = {
  incr_config : Config.t;
      (** solver configuration for every session (metrics on by default
          so [query report] has content) *)
  max_sessions : int;  (** open sessions cap (default 64) *)
  max_inflight : int;
      (** global admitted-edit-batch cap; [0] refuses every edit —
          useful for backpressure tests (default 32) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** A server with no sessions and no listener. *)

val config : t -> config

(** {1 In-process request handling} — thread-safe; every socket
    connection funnels into these *)

val handle_request : t -> Protocol.request -> Protocol.response
(** Handle one request to completion (edit batches block until applied
    or refused). *)

val handle_requests : t -> Protocol.request list -> Protocol.response list
(** Handle a pipelined run of requests, replying in order. Consecutive
    edit batches for the same session are enqueued together before the
    drain starts, making them eligible for coalescing. *)

val handle_line : t -> string -> string
(** Parse one request line, handle it, emit the response line (no
    trailing newline). Malformed input yields a [bad_request] line. *)

val num_sessions : t -> int

(** {1 Socket serving} *)

val sockaddr_of : Protocol.address -> Unix.socket_domain * Unix.sockaddr
(** Resolve an address ([Tcp] host by {!Unix.inet_addr_of_string}, then
    [gethostbyname]). *)

val start : t -> Protocol.address -> Protocol.address
(** Bind, listen and spawn the accept thread; returns the bound address
    with ephemeral TCP port 0 resolved. [SIGPIPE] is ignored
    process-wide (a client vanishing mid-reply must not kill the
    daemon; the write error closes just that connection).
    @raise Invalid_argument if already started.
    @raise Unix.Unix_error on bind/listen failure. *)

val wait : t -> unit
(** Block until a [shutdown] request arrives or {!stop} is called. *)

val shutdown : t -> unit
(** Request shutdown asynchronously (what a [shutdown] protocol request
    does): wakes {!wait} without joining anything, so it is safe from a
    signal handler. Follow with {!stop} to tear the listener down. *)

val stop : t -> unit
(** Stop serving: wakes {!wait}, joins the accept thread, shuts down
    live connections and joins their workers, closes and (for Unix
    sockets) unlinks the listener. Idempotent; in-process handling
    still works afterwards (except that non-[ping]/[stats] requests
    get [shutting_down]). *)
