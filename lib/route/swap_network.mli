(** SWAP networks: circuits of logic levels, each a set of vertex-disjoint
    SWAP gates along fast interactions (paper Section 5.2, "Goal").

    The depth (number of levels) is the router's optimization objective —
    non-intersecting SWAPs execute in parallel. *)

type level = (int * int) list
(** Vertex-disjoint swaps applied simultaneously. *)

type t = level list
(** Levels in execution order. *)

val depth : t -> int

type sequence = int array
(** A network as its swaps in the order a router generated them, one
    {!Qcp_circuit.Swap_word} per swap carrying both vertices and the
    swap's level in the router's own network.  Each vertex meets its swaps
    in level order, so the sequence times exactly like the network
    ({!Qcp_circuit.Timing.stage_advance_swaps}) without being sorted into
    levels: the placer stores one per routed permutation and builds a list
    network ({!levels}, {!compressed}) only for the stages it keeps. *)

val of_levels : t -> sequence
(** Level by level, in order, each swap tagged with its level index. *)

val levels : sequence -> t
(** The swaps grouped by their level, in sequence order within a level
    (levels no swap names are dropped): the inverse of {!of_levels}. *)

val compressed : sequence -> t
(** [compress (levels s)], built straight from the sequence: the network
    the bisection router returns from its uncompressed levels. *)

val swap_count : t -> int

val is_valid : Qcp_graph.Graph.t -> t -> bool
(** Every swap lies on a graph edge and no vertex appears twice per level. *)

val apply : t -> int array -> int array
(** Apply to a token configuration [config.(vertex) = token]; returns the new
    configuration (input unchanged). *)

val realizes : t -> perm:Perm.t -> bool
(** Starting from [config.(v) = v], does the network deliver token [v] to
    vertex [perm.(v)] for every [v]? *)

val to_circuit : qubits:int -> t -> Qcp_circuit.Circuit.t
(** The network as a circuit of SWAP gates over vertex indices (each SWAP has
    duration weight 3). *)

val compress : t -> t
(** ASAP re-levelization: each swap moves to the earliest level where both
    its vertices are free, preserving the relative order of overlapping
    swaps (and hence the realized permutation).  Depth never increases. *)

val pp : Format.formatter -> t -> unit
