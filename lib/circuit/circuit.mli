(** Quantum circuits: an ordered gate list over qubits [0 .. qubits-1]
    (paper Definition 2; levels are recovered by {!Levelize}). *)

type t

val make : qubits:int -> Gate.t list -> t
(** Validates that every gate's qubits are in range.
    Raises [Invalid_argument] otherwise. *)

val qubits : t -> int

val gates : t -> Gate.t list

val gate_count : t -> int

val two_qubit_count : t -> int

val append : t -> t -> t
(** Sequential composition; both circuits must have the same qubit count. *)

val map_qubits : (int -> int) -> ?qubits:int -> t -> t
(** Relabel qubits, optionally changing the qubit count (e.g. when embedding
    a logical circuit into a larger physical register). *)

val sub : t -> first:int -> count:int -> t
(** The subcircuit of [count] consecutive gates starting at index [first]. *)

val interaction_graph : t -> Qcp_graph.Graph.t
(** Graph over the circuit's qubits with an edge for every pair coupled by at
    least one two-qubit gate. *)

val total_duration : t -> float
(** Sum of [Gate.duration] over all gates (a placement-independent lower
    bound ingredient). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** One gate per line. *)
