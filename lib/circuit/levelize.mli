(** Greedy ASAP levelization: gates that act on disjoint qubits and have no
    earlier unfinished predecessor are grouped into one logic level (paper
    Section 3 assumes levelled input circuits). *)

val levels : Circuit.t -> Gate.t list list
(** Partition of the circuit's gates into levels, in execution order.  Within
    a level all gates act on pairwise disjoint qubit sets. *)

val check : Gate.t list list -> bool
(** Whether every level's gates act on pairwise disjoint qubits. *)
