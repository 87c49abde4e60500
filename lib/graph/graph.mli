(** Simple undirected graphs over vertices [0 .. n-1].

    The library's physical-environment adjacency graphs ("fast interactions"),
    circuit interaction graphs and NP-completeness constructions are all
    instances of this type.  Graphs are immutable once built.

    Adjacency is kept in two synchronized views: sorted neighbor arrays
    (deterministic iteration order) and packed bitsets of 63-bit integer
    words (O(1) edge tests and bitwise candidate-set intersection).  The
    [mask_*] helpers below operate on plain [int array] bitsets so search
    code can maintain its own vertex sets (visited, used, frontier) in the
    same representation and intersect them with {!neighbor_mask} rows. *)

type t

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph with [n] vertices.  Self-loops are
    dropped; duplicate edges are kept once.  Raises [Invalid_argument] if an
    endpoint is out of range. *)

val n : t -> int
(** Number of vertices. *)

val edge_count : t -> int

val edges : t -> (int * int) list
(** Every edge once, with [u < v], sorted. *)

val neighbors : t -> int -> int array
(** Sorted neighbor array (do not mutate). *)

val neighbor_mask : t -> int -> int array
(** The neighbor set of a vertex as a bitset (do not mutate).  Bit [v] of
    word [v / 63] is set iff the edge exists. *)

val degree : t -> int -> int

val degrees : t -> int array
(** The full degree array, indexed by vertex (do not mutate). *)

val max_degree : t -> int

val neighbor_degrees : t -> int array array
(** Per-vertex neighbor-degree signatures: [neighbor_degrees g].(v) is the
    degrees of v's neighbors sorted descending (do not mutate).  Computed
    once per graph on first demand and memoized -- this is the
    monomorphism engine's neighborhood pruning table. *)

val degree_suffix : t -> int array
(** Degree suffix counts: [(degree_suffix g).(d)] is the number of vertices
    of degree at least [d], for [d] in [0 .. max_degree g + 1] (the last
    entry is 0).  Computed once per graph and memoized -- this backs the
    monomorphism engine's degree-sequence refutation. *)

val mem_edge : t -> int -> int -> bool
(** Edge test in O(1) (bitset lookup). *)

val is_empty : t -> bool
(** True when the graph has no edges. *)

val vertices : t -> int list

val induced : t -> int list -> t * int array
(** [induced g vs] is the subgraph on vertex list [vs] (in the given order)
    together with the array mapping new indices back to old vertex ids. *)

val add_edges : t -> (int * int) list -> t
(** A new graph with extra edges. *)

val leaves : t -> int list
(** Vertices of degree exactly 1. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Bitset scratch operations}

    Free functions over plain [int array] bitsets, compatible with
    {!neighbor_mask}.  All masks over the same vertex count have the same
    length, so the binary operations assume equal lengths. *)

val mask_words : int -> int
(** Words needed for a bitset over [n] vertices. *)

val mask_make : int -> int array
(** A fresh all-zero bitset sized for [n] vertices (at least one word). *)

val mask_set : int array -> int -> unit

val mask_clear : int array -> int -> unit

val mask_mem : int array -> int -> bool

val mask_inter_into : into:int array -> int array -> unit
(** [mask_inter_into ~into src] is [into := into AND src]. *)

val mask_diff_into : into:int array -> int array -> unit
(** [mask_diff_into ~into src] is [into := into AND NOT src]. *)

val mask_popcount : int array -> int

val mask_inter_popcount : int array -> int array -> int
(** [mask_inter_popcount a b] is [mask_popcount (a AND b)], without
    materializing the intersection. *)

val mask_is_empty : int array -> bool

val bit_index : int -> int
(** Index of the only set bit of a one-bit word (e.g. [w land (-w)]), for
    manual bit-popping loops over single-word masks. *)

val iter_mask : (int -> unit) -> int array -> unit
(** Iterate the set bits in increasing vertex order — the same order as the
    sorted {!neighbors} rows, which is what keeps bitset-driven searches
    enumeration-order-identical to array-driven ones. *)

val fold_mask : (int -> 'a -> 'a) -> int array -> 'a -> 'a
(** Fold over set bits in increasing vertex order. *)
