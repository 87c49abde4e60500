(** Arbitrary-precision natural numbers in decimal representation.

    Just enough bignum arithmetic to report placement search-space sizes
    [m!/(m-n)!] exactly — the paper quotes a 1167-digit number for the
    512-qubit exhaustive search (Section 6, footnote 4). *)

type t

val of_int : int -> t
(** Represent a non-negative integer. *)

val mul_int : t -> int -> t
(** Multiply by a non-negative machine integer. *)

val to_string : t -> string
(** Decimal string without leading zeros. *)

val digits : t -> int
(** Number of decimal digits. *)

val to_int_opt : t -> int option
(** The value as a machine integer if it fits, [None] otherwise. *)

val falling_factorial : int -> int -> t
(** [falling_factorial m n] is [m * (m-1) * ... * (m-n+1)] — the number of
    injective placements of [n] qubits into [m] nuclei. *)
