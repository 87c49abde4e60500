(** Breadth-first traversals: distances, shortest paths, connected components
    and spanning trees. *)

val bfs_dist : ?restrict:(int -> bool) -> Graph.t -> int -> int array
(** Unweighted distances from a source; [-1] for unreachable vertices.  When
    [restrict] is given the search only visits vertices satisfying it (the
    source must satisfy it). *)

val bfs_parents : ?restrict:(int -> bool) -> Graph.t -> int -> int array
(** BFS tree parents from a root; the root's parent is itself, unreachable
    vertices get [-1]. *)

val shortest_path : ?restrict:(int -> bool) -> Graph.t -> int -> int -> int list option
(** Vertex sequence from source to destination inclusive, if connected. *)

val all_pairs_weighted : cost:(int -> int -> float) -> Graph.t -> float array array
(** [(all_pairs_weighted ~cost g).(s).(t)] is the cheapest path cost from
    [s] to [t] when traversing edge [(u, v)] from [u] costs [cost u v]
    ([infinity] if unreachable), by one Dijkstra per source.  Raises
    [Invalid_argument] on a negative edge cost. *)

val components : Graph.t -> int array * int
(** [(comp, count)] where [comp.(v)] is the component id of [v]. *)

val is_connected : Graph.t -> bool
(** True for the empty and one-vertex graph as well. *)

val is_bipartite : Graph.t -> bool
(** Whether the vertices 2-color so that every edge joins both colors
    (equivalently: the graph has no odd cycle). *)

val is_connected_subset : Graph.t -> int list -> bool
(** Whether the induced subgraph on the given vertices is connected. *)
