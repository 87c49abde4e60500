(** Structured, leveled, line-JSON event logging.

    Each emitted event is one JSON object on one line:

    {v
    {"ts":1723200000.123456,"mono":12.345678,"seq":41,"level":"info",
     "event":"request","id":"r1","status":"ok","queue_wait_s":0.0002,...}
    v}

    [ts] is the absolute wall clock ({!Unix.gettimeofday}), [mono] is
    seconds since logger initialization (monotone within a process up to
    wall-clock steps), and [seq] is a process-global strictly increasing
    event number — the deterministic ordering key when multiple domains
    log concurrently.

    {b Disabled cost.}  When no level is armed (the default), an event is
    one atomic load and an integer compare before returning — the
    quiet-daemon hot path stays a load-and-branch, the same discipline as
    {!Metrics.enabled} and {!Trace.enabled}.  Field lists are built lazily
    (a thunk), so argument construction is never paid while disarmed.

    {b Sinks.}  Rendered lines go to one pluggable {!sink} — stderr by
    default, an append-mode file via {!file_sink}, or any [string -> unit]
    (tests use {!buffer_sink}).  The sink is called under a lock with one
    complete line at a time, so concurrent domains never interleave the
    bytes of two events, and every line is flushed as written (crash-safe,
    [tail -f]-able).

    {b Zero-dependency.}  This module sits below [Qcp_util]; its escaper
    mirrors [Qcp_util.Json], so every emitted line parses back through it
    (the access-log round-trip contract, property-tested by the serve
    observability suite). *)

type level = Debug | Info | Warn | Error

(** A structured field value.  [Num] renders like [Qcp_util.Json] numbers
    (integral floats without a fraction, non-finite clamped); [Obj] nests
    one level of structure (e.g. a per-phase breakdown). *)
type field =
  | Str of string
  | Num of float
  | Int of int
  | Bool of bool
  | Obj of (string * field) list

type sink = string -> unit
(** Receives one rendered line (no trailing newline) per event. *)

val set_level : level option -> unit
(** Arm events at this level and above; [None] (the initial state)
    disables logging entirely. *)

val level : unit -> level option
(** The currently armed level. *)

val set_sink : sink -> unit

val stderr_sink : sink
(** The default: each line to stderr, flushed. *)

val buffer_sink : Buffer.t -> sink
(** Append lines (newline-terminated) to a buffer — for tests. *)

val file_sink : string -> sink
(** Open [path] in append mode (creating it at 0644) and return its
    channel sink.  The channel stays open for the process lifetime. *)

val debug : string -> (unit -> (string * field) list) -> unit
val info : string -> (unit -> (string * field) list) -> unit
val warn : string -> (unit -> (string * field) list) -> unit
val error : string -> (unit -> (string * field) list) -> unit

val reset : unit -> unit
(** Disarm, zero the sequence counter, rebase [mono] to now, and restore
    the stderr sink — test isolation. *)
