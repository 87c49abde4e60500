(** Deadline clock for anytime search cutoffs.

    One shared notion of "now" (seconds, float) for every deadline check in
    the library, so the choice of clock source lives in exactly one place.
    The stdlib exposes no monotonic clock; [Unix.gettimeofday] is the best
    zero-dependency approximation.  Deadline checks must therefore tolerate
    wall-clock steps: a backwards step only delays a cutoff (search keeps
    running), never aborts early with a wrong result — deadline aborts are
    advisory anytime cutoffs, not correctness conditions. *)

val now : unit -> float
(** Current time in seconds.  Comparable only against other {!now} values
    (and offsets of them); the absolute epoch is unspecified. *)

val expired : float -> bool
(** [expired deadline] — whether [deadline] (an absolute {!now}-scale
    instant) has passed.  [infinity] never expires; checking it performs no
    clock read. *)
