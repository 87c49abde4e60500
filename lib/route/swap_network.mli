(** SWAP networks: circuits of logic levels, each a set of vertex-disjoint
    SWAP gates along fast interactions (paper Section 5.2, "Goal").

    The depth (number of levels) is the router's optimization objective —
    non-intersecting SWAPs execute in parallel. *)

type level = (int * int) list
(** Vertex-disjoint swaps applied simultaneously. *)

type t = level list
(** Levels in execution order. *)

val depth : t -> int

type flat = {
  swaps : int array;
      (** Swap [i] is [(swaps.(2i), swaps.(2i+1))]; swaps are listed level
          by level, in execution order. *)
  level_starts : int array;
      (** [depth + 1] swap indices: level [l] holds swaps
          [level_starts.(l)] to [level_starts.(l+1) - 1]. *)
}
(** The same network as two flat arrays: what the placer stores per routed
    permutation and times directly ({!Qcp_circuit.Timing.stage_advance_swaps}),
    so scoring never builds the level list or its SWAP circuit. *)

val empty_flat : flat

val flatten : t -> flat

val of_flat : flat -> t
(** Inverse of {!flatten}. *)

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
