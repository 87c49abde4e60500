(** The paper's fast permutation-circuit construction (Section 5.2).

    Divide and conquer: cut the adjacency graph into two balanced connected
    halves, flow every token to its correct half through a single
    communication-channel edge (the "water and air bubbles" process), then
    recurse on the halves in parallel.  On well-separable graphs
    (s >= 1/max-degree, Appendix Theorem 1) the produced network has O(n)
    levels; on chains the bound is tight up to constants.

    The optional *leaf-target value override* heuristic (Section 5.3) runs as
    a pre-pass: whenever a leaf's desired value sits next door, it is swapped
    in and the leaf is excluded from the rest of the routing (the paper
    reports a 0-5% depth reduction). *)

exception Routing_failure of string
(** Internal-invariant violation; never expected on valid inputs. *)

type memo
(** The permutation-independent routing structure of one adjacency graph,
    compiled on demand into a split tree: one node per routed vertex
    subset (keyed by a vertex bitset, one word per 62 vertices), holding
    its two bisection halves ({!Qcp_graph.Separator.bisect}), its channel
    edge, each half's BFS order toward the channel with the matching BFS
    parents as [int array]s, and pointers to its halves' nodes.  The
    separator and BFS work is paid once per subset; a route looks up only
    its root (none when the leaf pre-pass froze nothing) and below it
    follows pointers.  The graph's connectivity is checked once, when the
    memo binds to it.  Networks produced with and without a memo are
    identical.  A memo is safe to share across domains: lookups read it
    without locking, and compiling a new subset takes its lock. *)

val make_memo : unit -> memo
(** A fresh, empty memo.  Use one memo per (graph, [edge_cost]) combination:
    the first [route] call binds it to its graph (later calls with another
    graph raise [Invalid_argument]), but a differing [edge_cost] cannot be
    detected and silently yields the channels of the first one. *)

val route_sequence :
  ?leaf_override:bool ->
  ?edge_cost:(int -> int -> float) ->
  ?memo:memo ->
  Qcp_graph.Graph.t ->
  perm:Perm.t ->
  Swap_network.sequence
(** The swaps of {!route} in the order the recursion generates them, each
    tagged with its level in the uncompressed network (pre-pass levels,
    then each bisection's phase levels, then its halves' levels, the two
    halves sharing level numbers): {!Swap_network.compressed} of the
    result is {!route}'s network, and it times the same.  Routing runs in
    per-domain scratch buffers, so with a warm [memo] a call allocates only
    its result. *)

val route :
  ?leaf_override:bool ->
  ?edge_cost:(int -> int -> float) ->
  ?memo:memo ->
  Qcp_graph.Graph.t ->
  perm:Perm.t ->
  Swap_network.t
(** Build a SWAP network realizing [perm] on a *connected* graph.
    [leaf_override] defaults to [true].  [edge_cost] enables the weighted
    refinement the paper mentions ("modification ... that accounts for the
    actual costs of SWAPs is possible"): communication-channel edges are
    chosen to minimize it.  The two halves of each bisection are
    vertex-disjoint, so their levels are interleaved into one network.
    Raises [Invalid_argument] if the graph is disconnected or [perm] is not a
    permutation of the graph's vertices. *)

val depth_upper_bound : Qcp_graph.Graph.t -> int
(** The analytic [8n + O(1)] level bound from the paper for graphs with
    separability 1/2 (coarse; actual networks are much shallower). *)
