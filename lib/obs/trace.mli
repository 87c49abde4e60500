(** Nested spans on per-domain ring buffers.

    A span wraps a computation; on close it appends one {!event} to the
    recording domain's private ring buffer.  Rings are domain-local
    (allocated lazily through [Domain.DLS] on a domain's first recorded
    event), so {!Qcp_util.Task_pool} workers write them without any lock
    or shared-cache traffic; the only global synchronization per event is
    one [Atomic.fetch_and_add] on the sequence counter that makes the
    final merge deterministic.

    {b Disabled cost.}  When tracing is off, {!with_span} is one atomic
    load and a branch before calling the thunk — no allocation, no clock
    read.  Instrumented hot paths additionally guard their argument
    construction behind {!enabled}.

    {b Deterministic merge.}  Every event carries a globally unique
    sequence number taken when the span closes.  {!events} concatenates
    all rings and sorts by that number, so for a fixed set of recorded
    events the merged list is the same whatever the domain interleaving
    was, and repeated calls return structurally equal lists.

    {b Bounded memory.}  Rings hold [capacity] events each (see
    {!start}); older events are overwritten and counted in {!dropped}.

    {b Self time.}  Each domain keeps a stack of child-duration
    accumulators, so events carry their self time (duration minus direct
    children) at recording cost O(1) — no tree reconstruction at export
    time. *)

type event = {
  name : string;
  cat : string;  (** category, e.g. ["placer"], ["router"] *)
  tid : int;  (** recording domain's id *)
  seq : int;  (** global close order — the merge key *)
  ts : float;  (** span start, seconds since {!start} *)
  dur : float;  (** wall duration in seconds *)
  self : float;  (** [dur] minus the duration of direct child spans *)
  args : (string * string) list;
}

val start : ?capacity:int -> unit -> unit
(** Reset all rings and begin recording.  [capacity] (default [32768])
    bounds each domain's ring.  Restarting invalidates rings from the
    previous recording epoch, including those cached by long-lived pool
    workers. *)

val stop : unit -> unit
(** Stop recording.  Already-recorded events stay readable via
    {!events}. *)

val enabled : unit -> bool
(** Whether recording is on (one atomic load). *)

val with_span :
  ?cat:string ->
  ?args:(unit -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f ()]; when recording, the span is closed
    (and its event recorded) even if [f] raises.  [args] is evaluated
    only when recording, at close time. *)

val events : unit -> event list
(** All surviving events of the current epoch, merged across domains in
    sequence order. *)

val dropped : unit -> int
(** Events lost to ring overwrites in the current epoch. *)
