(** Request flight recorder: a bounded ring of the last [capacity]
    request records, each carrying its summary fields and the {!Trace}
    spans captured while its batch solved.

    The recorder exists for the serving daemon: {!Trace}'s dump-at-exit
    model is useless for a process that never exits, so the serve engine
    records per-batch span captures here instead, and the daemon's
    ["dump"] op (or the slow/error auto-dump) renders the ring as a
    Chrome trace-event file {e while the daemon keeps running}.

    Memory is bounded by construction: [capacity] records, each holding
    at most one batch's surviving spans; older records are overwritten
    ({!recorded} minus {!length} tells how many were lost). *)

type record = {
  f_seq : int;  (** Server-assigned request sequence number. *)
  f_id : string;  (** Client correlation id. *)
  f_op : string;  (** Request op, e.g. ["place"]. *)
  f_status : string;  (** Response status (["ok"], ["timeout"], ...). *)
  f_cached : bool;
  f_shed : bool;  (** Dropped at dispatch because its budget had expired. *)
  f_key : string;  (** Content-key digest. *)
  f_arrival : float;  (** Seconds since engine start (the dump timeline). *)
  f_queue_wait : float;  (** Seconds queued before dispatch. *)
  f_wall : float;  (** Dispatch-to-response seconds. *)
  f_phases : (string * float) list;
      (** Per-phase wall seconds from the placer's phase gauges (empty
          when telemetry is disarmed or the request was not solved). *)
  f_spans : Trace.event list;
      (** Solve spans, timestamps rebased onto the recorder timeline.
          Span capture is batch-granular: the spans of a multi-request
          batch ride on its first solved record. *)
}

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val capacity : t -> int

val record : t -> record -> unit

val records : t -> record list
(** Surviving records, oldest first. *)

val length : t -> int
(** Surviving record count ([min recorded capacity]). *)

val recorded : t -> int
(** Total records ever pushed (overwritten ones included). *)

val dump : Buffer.t -> t -> unit
(** A complete, valid Chrome trace-event JSON document
    ({!Export.trace_json}): one complete ("X") event per record — named
    [request#<seq>], spanning queue wait plus dispatch wall, with id / key /
    status / cached / shed and the phase breakdown as args — plus every
    record's captured solve spans verbatim. *)

val dump_file : string -> t -> unit
(** {!dump} to a file (truncating). *)
