(** Minimal binary min-heap over nonnegative integers.

    Backs the windowed subcircuit splitter's ready-gate queue: gates are
    released out of the dependency DAG in arbitrary order but must be
    consumed smallest-index first so the emitted gate stream is a
    deterministic linearization.  Push and pop are O(log n); no
    allocation after construction beyond array doubling. *)

type t

val create : int -> t
(** [create hint] is an empty heap with initial capacity [hint]
    (clamped to at least 1). *)

val is_empty : t -> bool

val push : t -> int -> unit

val pop : t -> int
(** Remove and return the smallest element.
    Raises [Invalid_argument] on an empty heap. *)
