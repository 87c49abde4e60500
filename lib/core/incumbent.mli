(** Monotone-min score cell shared across domains.

    Scores are nonnegative runtimes (delay units), so the IEEE-754 sign bit
    is clear and the remaining 63 bits order exactly like the float when
    compared as an {e unsigned} integer; flipping the top bit
    ([lxor min_int]) turns that into native signed int order, giving an
    exact, allocation-free shared cell out of a single [int Atomic.t].  The
    round-trip is lossless for every nonnegative float including
    [infinity].

    The placer's candidate sweeps use this cell as their incumbent: every
    publisher submits an {e achieved} score (a realizable candidate's
    makespan), so the cell's value is always an upper bound on the sweep's
    best result and pruning against it never cuts a potential winner. *)

type t

val make : float -> t
(** A cell holding [init] (commonly [infinity]).  [init] must be
    nonnegative. *)

val get : t -> float
(** Current minimum (one atomic load). *)

val submit : t -> float -> unit
(** Lower the cell to [score] if it improves on the current minimum
    (CAS loop; monotone, never raises the value).  [score] must be
    nonnegative. *)
