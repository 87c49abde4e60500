(** The [qcp serve] daemon: a long-running placement service over
    line-delimited JSON (see {!Protocol}).

    The daemon exists to amortize everything the one-shot CLI rebuilds per
    process: the {!Qcp_util.Task_pool} domains, the per-threshold
    adjacency memo, the cross-run route registries of {!Qcp.Score_cache}
    — and, above them all, an exact {!Result_cache} answering repeated
    requests with the bit-identical bytes a cold solve would produce.

    {b Architecture.}  A single-threaded [select] loop owns the sockets:
    it accepts clients, splits their byte streams into request lines, and
    feeds complete requests through admission control into a FIFO queue.
    Each loop turn drains up to [max_batch] queued requests into one
    {!Engine.dispatch} call, which runs cache lookups, dedupes identical
    keys, and solves the misses through one {!Qcp.Portfolio.place_batch}
    call on the shared pool — so concurrency
    comes from batching inside the engine, never from racing threads over
    shared placement state (which is what keeps responses deterministic).

    {b Admission control.}  Three invariants bound resource use: at most
    [queue_cap] requests wait (excess gets an immediate ["overloaded"]
    response — backpressure, not silent queuing); at most [max_batch]
    placements are in flight (one engine dispatch); and every request
    carries an absolute deadline (its own budget or [default_deadline]),
    enforced between pipeline stages, so a stuck instance returns a clean
    ["timeout"] instead of wedging the batch forever.

    {b Shutdown.}  SIGINT/SIGTERM, a ["shutdown"] request, or the
    [max_requests] budget flips the loop into draining: listeners close,
    queued requests are still solved and answered, then the process
    exits.  Nothing is dropped silently.

    {b Observability.}  Every lifecycle transition and every served
    request emits a structured {!Qcp_obs.Log} event (one JSON object per
    line; ["request"] records carry id, status, cache hit/miss, shed
    flag, queue wait, solve wall and the per-phase breakdown).  With
    [flight_cap > 0] the engine keeps a {!Qcp_obs.Flight} ring of the
    last N requests with their solve spans, dumpable as a Chrome trace
    via the ["dump"] op while the daemon keeps running — and dumped to
    [dump_dir] automatically when a dispatch exceeds [slow_dump] or ends
    in a non-["ok"] status.  The ["stats"] op (and [qcp stats]) exposes
    the counters as JSON or Prometheus text.  All of it is disarmed by
    default: the quiet hot path pays one atomic load and branch per
    would-be event. *)

type config = {
  socket_path : string option;  (** Unix socket path to listen on. *)
  port : int option;  (** TCP port on [host]. *)
  host : string;  (** TCP bind address (default ["127.0.0.1"]). *)
  jobs : int;  (** Task-pool domains shared by every batch. *)
  cache_cap : int;  (** Result-cache entries ([<= 0] disables). *)
  max_batch : int;  (** Requests solved per engine dispatch. *)
  queue_cap : int;  (** Queued requests before ["overloaded"]. *)
  default_deadline : float option;
      (** Budget (seconds) for requests that carry none. *)
  max_requests : int;
      (** Serve this many place requests, then drain and exit
          ([0] = unlimited) — benches and CI smoke tests. *)
  telemetry : bool;  (** Arm {!Qcp_obs.Metrics} hot-path instruments. *)
  install_signals : bool;
      (** Install SIGINT/SIGTERM drain handlers (off when the daemon runs
          inside a test or bench domain: signals are process-global). *)
  log_level : Qcp_obs.Log.level option;
      (** Arm the structured logger at this level ([None] = quiet). *)
  log_file : string option;
      (** Append log lines to this file instead of stderr. *)
  flight_cap : int;
      (** Flight-recorder ring capacity ([<= 0] disables it, and with it
          the ["dump"] op and per-batch span capture). *)
  slow_dump : float option;
      (** Auto-dump the flight ring to [dump_dir] when a dispatch's
          slowest request (queue wait + wall) exceeds this many seconds,
          or any request in it ends non-["ok"].  [None] disables. *)
  dump_dir : string;  (** Directory for auto-dumped flight traces. *)
}

val default_config : config
(** No listeners (callers pick at least one), [jobs = 0],
    [cache_cap = 512], [max_batch = 16], [queue_cap = 256], no default
    deadline, unlimited requests, [telemetry = false],
    [install_signals = true], quiet ([log_level = None], no log file,
    [flight_cap = 0], no auto-dump, [dump_dir = "."]). *)

(** The socket-free core: parsing, caching, batching, counters.  Tests
    and benches drive it directly; {!serve} wraps it in the socket
    loop. *)
module Engine : sig
  type t

  val create : config -> t

  val parse_line : t -> string -> Protocol.envelope
  (** {!Protocol.parse_line} with this engine's interning resolvers:
      repeated env / circuit specs resolve to the same physical value
      (bounded FIFO intern tables), which keeps the adjacency memo and
      the per-graph route registries hot across requests.  A third intern
      table of the same bound is the place memo: a repeated place spec
      (env, circuit, options, telemetry) answers its resolved place, key
      and digest without rebuilding them. *)

  type job = {
    j_seq : int;  (** Engine-assigned request sequence number. *)
    j_id : string;  (** Echoed client correlation id. *)
    j_arrival : float;  (** {!Qcp_util.Clock.now} at admission. *)
    j_place : Protocol.place;
  }

  val make_job :
    t -> id:string -> arrival:float -> Protocol.place -> job
  (** Build a job with the engine's next sequence number. *)

  val dispatch : t -> now:float -> job list -> string list
  (** Solve one batch, returning response lines in job order.  Jobs whose
      timeout budget (own deadline or the config default, counted from
      arrival; portfolio requests included) expired before [now] are shed:
      answered ["timeout"] without solving, counted in both [timeouts]
      and [shed].  Cache hits answer immediately (the stored bytes);
      misses dedupe by cache key (duplicate jobs in one batch solve once
      and share the result), then solve in one
      {!Qcp.Portfolio.place_batch} call, classic and portfolio requests
      alike, with per-job absolute deadlines ([arrival + budget]) via
      [deadline_of].  Successful
      results are rendered once and stored; [status] maps
      deadline aborts to ["timeout"] and placement failures to
      ["unplaceable"].  Each response also emits one ["request"] access
      log event, lands one record (plus, for the batch's first solve,
      the captured solve spans) in the flight recorder when armed, and
      may trigger the slow/error auto-dump — none of which touches the
      response bytes. *)

  val control : t -> id:string -> Protocol.request -> string option
  (** Serve [Ping], [Stats] (either format) and [Dump] inline ([None]
      for [Place] and [Shutdown] — the loop owns those).  [Dump] answers
      the flight recorder's Chrome trace as the result (on one line), or
      an error when the recorder is disabled. *)

  val stats_json : t -> string
  (** Server counters as a JSON object: uptime, request/response counts
      by status (including [shed]), batch stats, cache occupancy and
      hit/miss/eviction counts, and the queue-wait histogram
      ({!Qcp_obs.Metrics.default_time_bounds} buckets). *)

  val stats_prometheus : t -> string
  (** The counters as registry-style series under the [serve.*] namespace
      (e.g. [serve.requests], [serve.responses.ok],
      [serve.queue_wait_seconds]), merged with the process-global
      {!Qcp_obs.Metrics.global} snapshot, sorted by name, rendered by
      {!Qcp_obs.Export.prometheus}. *)

  val cache : t -> Result_cache.t

  val flight : t -> Qcp_obs.Flight.t option
  (** The flight recorder ([None] unless [flight_cap > 0]). *)

  val requests_served : t -> int
  (** Place responses sent (the [max_requests] budget meter). *)
end

val serve : config -> unit
(** Run the daemon until shutdown (see above).  Raises
    [Invalid_argument] when the config names no listener, [Unix_error]
    on socket setup failures (e.g. the socket path is in use). *)
