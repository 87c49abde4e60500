(** Balanced connected bisection ("well separability", paper Section 5.2 and
    Appendix Theorem 1).

    A graph is well separable with parameter [s] if it can be recursively cut
    into two connected components whose size ratio (small/large) never drops
    below [s].  Theorem 1 shows every graph of maximum degree [k] admits
    [s = 1/k]; the paper's molecule interaction graphs achieve [s = 1/2].
    The permutation router uses [bisect] as its divide step. *)

val bisect : Graph.t -> int array -> (int array * int array) option
(** [bisect g vertices] splits the subgraph of [g] induced by [vertices]
    (distinct, ascending) into two connected parts, maximizing the size of
    the smaller part over the BFS spanning trees from every vertex of a
    subset of at most 64 (else from 16 evenly spaced ones).  Both parts
    are ascending, and the first is never larger than the second.
    Returns [None] if the subset has fewer than two vertices or induces a
    disconnected subgraph. *)

val tree_order : Graph.t -> int array -> root:int -> int array * int array
(** [tree_order g half ~root] orders the vertices of [half] (distinct,
    ascending, connected in [g] from [root], which it contains) by BFS
    distance from [root] inside [half], ties in vertex order, and returns
    that order with each vertex's BFS parent ([root] its own).  Raises
    [Invalid_argument] if [half] is not connected from [root]. *)

val ratio : int array -> int array -> float
(** Size ratio small/large of a bisection. *)

val separability : Graph.t -> float
(** Minimum bisection ratio encountered while recursively bisecting down to
    single vertices; [1.0] for graphs with fewer than two vertices. *)

val theorem1_bound : Graph.t -> float
(** The Appendix guarantee [1 / max_degree] (or [1.0] for edgeless graphs). *)
