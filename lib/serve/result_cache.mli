(** Bounded exact result cache for the serving daemon.

    Maps full content keys (see {!Protocol.key}) to rendered result text.
    Values are the final bytes a cold solve produced, so a hit returns a
    bit-identical response body.  Eviction is least-recently-used over a
    recency list that every access reorders, so the victim is a pure
    function of the operation history — two daemons fed the same request
    stream hold the same entries — and {!find} and {!add} are O(1). *)

type t

val create : int -> t
(** [create cap]: hold at most [cap] entries.  [cap <= 0] disables the
    cache (every {!find} misses, {!add} is a no-op). *)

val capacity : t -> int

val length : t -> int

val find : t -> string -> string option
(** Lookup by full key; refreshes the entry's recency and counts a hit or
    a miss. *)

val add : t -> string -> string -> unit
(** Insert (or refresh) a binding, evicting the least recently used entry
    when full. *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int
