(** Permutations of [0 .. n-1], stored as arrays with [p.(src) = dst].

    A permutation describes where the quantum value (token) currently at
    vertex [src] must travel: to vertex [p.(src)] (paper Section 5.2). *)

type t = int array

val identity : int -> t

val is_valid : int array -> bool
(** Whether the array is a bijection on its index range. *)

val is_identity : t -> bool

val inverse : t -> t

val compose : t -> t -> t
(** [compose p q] applies [q] first, then [p]: [(compose p q).(i) = p.(q.(i))]. *)

val random : Qcp_util.Rng.t -> int -> t

val of_placements : size:int -> before:int array -> after:int array -> t
(** The vertex permutation turning placement [before] into placement [after]
    (both map qubit -> vertex, injectively, into a register of [size]
    vertices): the token at [before.(q)] must reach [after.(q)].  Vertices
    holding no qubit are completed greedily — fixed where possible, matched
    in index order otherwise.  Raises [Invalid_argument] on non-injective or
    out-of-range placements. *)

type builder
(** Reusable buffers for {!of_placements_into}.  Not thread-safe: use one
    builder per domain. *)

val builder : unit -> builder

val of_placements_into :
  builder -> size:int -> before:int array -> after:int array -> t
(** {!of_placements} into the builder's own array, with the same checks
    and the same [Invalid_argument] messages, allocating nothing once the
    builder has seen [size].  The result is owned by the builder and
    overwritten by its next call: copy it to keep it. *)
