(** Registry of named counters, gauges and histograms.

    Two kinds of registries coexist:

    - {!global}, the process-wide registry.  Hot-path instrumentation
      (the task pool's steal counters, the monomorphism engine's node and
      refutation counters, the routers) writes here, but only when
      {!enabled} — the disabled path is a single atomic load and branch.
    - per-run registries made with {!create}.  The placer allocates one
      per placement run so concurrent [Portfolio.place_batch] jobs never mix
      their counts; at the end of the run the registry is snapshotted into
      the program's [metrics] field and, when {!enabled}, {!merge_into}
      the global registry.

    Counter updates are lock-free ([Atomic] cells).  Gauges and histogram
    sums take a per-item mutex — they are written at region granularity
    (per stage, per pool region), never per candidate.  Handle creation
    ({!counter} and friends) interns by name under the registry lock; all
    instrumented modules create their handles once at module
    initialization, so steady-state updates never touch the lock. *)

type t
(** A registry: a mutable name → instrument table. *)

type counter
type gauge
type histogram

val create : unit -> t
(** A fresh, empty registry. *)

val global : t
(** The process-wide registry. *)

val set_enabled : bool -> unit
(** Arm or disarm hot-path instrumentation of the {!global} registry.
    Per-run registries are always live (their counters feed
    [Placer.stats]); this flag only gates the per-node / per-slot
    counters whose cost would otherwise be paid on every search step. *)

val enabled : unit -> bool
(** Whether hot-path instrumentation is armed (one atomic load). *)

val counter : t -> string -> counter
(** The counter registered under [name], created at 0 on first use.
    Raises [Invalid_argument] if the name is bound to another kind. *)

val incr : counter -> unit

val add : counter -> int -> unit

val count : counter -> int

val gauge : t -> string -> gauge
(** The gauge registered under [name], created at 0 on first use. *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val default_time_bounds : float array
(** Exponential bucket upper bounds for durations in seconds:
    [1us, 10us, 100us, 1ms, 10ms, 100ms, 1s, 10s] (values above the last
    bound land in the implicit overflow bucket). *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** The histogram registered under [name], created empty on first use
    with [bounds] (default {!default_time_bounds}; must be strictly
    increasing).  [bounds] is ignored when the histogram already
    exists. *)

val observe : histogram -> float -> unit

val bucket_index : float array -> float -> int
(** [bucket_index bounds v] is the smallest [i] with [v <= bounds.(i)],
    or [Array.length bounds] when [v] exceeds every bound — the bucket
    {!observe} increments. *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;  (** length = [Array.length bounds + 1] *)
      sum : float;
      count : int;
    }

type snapshot = (string * value) list
(** Sorted by name, so snapshots of equal state are structurally equal. *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value option

val merge_into : t -> into:t -> unit
(** Fold one registry's current values into another: counters and
    histogram buckets add, gauges overwrite.  Every counter of [src] ends
    up registered in [into], zero-valued ones included.  Histogram merging requires
    equal bounds (violations raise [Invalid_argument]). *)

val reset : t -> unit
(** Zero every registered instrument in place.  Existing handles stay
    valid and keep writing to the same (now zeroed) cells. *)
