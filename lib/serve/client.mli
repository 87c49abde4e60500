(** Minimal blocking client for the [qcp serve] protocol: connect, send
    request lines, read response lines.  Used by [qcp request] (so CI and
    scripts need no netcat), the throughput load generator and the test
    suite. *)

type address =
  | Unix_socket of string
  | Tcp of string * int  (** host, port *)

type t

val connect : ?retries:int -> address -> t
(** Connect, retrying [retries] times (default 50) with a 100 ms pause —
    callers usually race the daemon's startup.  Raises the last
    [Unix.Unix_error] when every attempt fails. *)

val request : t -> string -> string
(** [send_line] then [recv_line] — one synchronous round trip. *)

val close : t -> unit
