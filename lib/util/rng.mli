(** Deterministic, splittable pseudo-random number generator (splitmix64).

    Every randomized component of the library threads an explicit generator
    state so that experiments are exactly reproducible from a seed.  The
    implementation follows Steele, Lea and Flood's SplitMix64. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0 .. n-1]. *)
