(** Subgraph monomorphism (injective edge-preserving embedding).

    This replaces the VFLib C++ library [27] used by the paper: given a
    pattern graph (the interaction graph of a workspace subcircuit) and a
    target graph (the fast-interaction adjacency graph of the physical
    environment), enumerate injective maps [f] with
    [pattern edge (u,v) => target edge (f u, f v)].

    The search is a VF2-style backtracking enumeration, one allocation-free
    loop: pattern vertices in degree-descending BFS order, component by
    component; a vertex's candidates are the sorted target neighbor row of
    its first earlier neighbor's image, kept when unused and adjacent to
    every other earlier neighbor's image.  Three refutations cut dead
    branches: degree-sequence dominance up front, neighbor-degree
    signatures per candidate, and a free-region packing test at each
    component seed (the remaining components, and the seed's branches
    around a candidate image, must fit into connected regions of unused
    target vertices).  Pattern vertices of degree zero are assigned no
    image ([-1] in the result); the placement layer positions such qubits
    separately.

    Determinism guarantee: pruning only removes branches that contain no
    monomorphism, and candidates are tried in increasing target-vertex
    order, so the result list -- which mappings, and in which order -- is
    identical to the reference backtracking enumerator's (property-tested
    in [test/suite_monomorph.ml]).  Node counts are not part of the
    contract: a stronger refutation visits fewer nodes. *)

val enumerate :
  ?limit:int ->
  ?jobs:int ->
  ?root_cap:int ->
  ?slot_budget:int ->
  pattern:Graph.t ->
  target:Graph.t ->
  unit ->
  int array list
(** Up to [limit] (default 100) monomorphisms.  Each result maps pattern
    vertex index to target vertex index, [-1] for isolated pattern vertices.
    Results are in deterministic search order.

    [jobs] (default 1) > 1 fans the search out over first-vertex choices
    across that many domains of the shared {!Qcp_util.Task_pool}; slices
    are merged back in first-image order, so the result list is
    bit-identical to the sequential one.  Only worthwhile when [limit] is
    large and subtrees are expensive.

    [root_cap] (default unbounded) keeps only that many candidate images
    for the first ordered pattern vertex, preferring targets whose degree
    is closest to the pattern vertex's (sparse candidate generation on
    large dense environments).  The result is a subsequence of the
    uncapped enumeration, still deterministic at any [jobs]; it may miss
    mappings an uncapped search would find, so it is a heuristic for
    callers with a fallback path.

    [slot_budget] (default unbounded; only read with [root_cap]) caps the
    search nodes below each kept first-vertex image.  A slot that runs out
    keeps the mappings it found and ends the enumeration there, so the
    result is a prefix of the unbudgeted capped one -- still a
    subsequence of the uncapped enumeration, and identical at any
    [jobs].  Pruned branches hold no mapping, so refutations can only
    lengthen that prefix.  The packing test on first images runs on the
    capped list, so it never changes which images the cap keeps.  A
    [root_cap] of at least [Graph.n target] keeps every first image in
    ascending order: every image, budgeted. *)

val exists : pattern:Graph.t -> target:Graph.t -> bool
(** Whether at least one monomorphism exists. *)

val check : pattern:Graph.t -> target:Graph.t -> int array -> bool
(** Validate a candidate mapping: injective on non-negative entries and
    edge-preserving. *)

(** Incremental existence oracle for patterns grown one edge at a time.

    {!Qcp.Workspace.fold_windowed} asks, per new interaction pair, whether the
    current pattern plus that pair still embeds into the target.  This API
    keeps the pattern as mutable adjacency bitsets over the qubit indices so
    a query runs directly on that structure instead of rebuilding a
    {!Graph.t} per call.  Answers agree with [exists] on the equivalent
    built graph (existence is search-order independent).

    Search contract: a query walks one fixed DFS tree — pattern qubits in
    degree-descending BFS order, candidates in ascending target-vertex
    order, one node counted per tried candidate — so the answer, the
    witness (the first embedding in that order) and the point where a
    [budget] cuts the search are functions of the pattern and the target
    alone.  Candidates of a qubit with earlier-ordered neighbors come from
    the sorted neighbor row of the first such neighbor's image, filtered
    by adjacency to the other images, the used set and the degree test; a
    component seed's candidates come from a free list of the unused target
    vertices, ascending.  The order (a counting sort by degree, then BFS
    over sorted pattern rows), the per-step neighbor lists and the free
    list are scratch built into [t], so a query allocates only its witness.
    [test/suite_monomorph.ml] pins the tree -- answers, witnesses and node
    counts -- against a verbatim copy of the mask-intersection search it
    replaced, at several budgets, and checks the allocation claim. *)
module Incremental : sig
  type t

  val create : qubits:int -> target:Graph.t -> t
  (** An empty pattern over [qubits] vertices against a fixed target. *)

  val reset : t -> unit
  (** Forget every added edge (start a new subcircuit). *)

  val add : t -> int * int -> unit
  (** Commit an edge to the pattern.  Self-loops and duplicates are
      ignored, mirroring {!Graph.of_edges}. *)

  val degree : t -> int -> int
  (** Current pattern degree of a qubit. *)

  val embeds_with : ?budget:int -> t -> int * int -> int array option
  (** [embeds_with t (a, b)] searches for a monomorphism of the current
      pattern extended with edge [(a, b)] -- without committing the edge --
      and returns one witness mapping ([-1] for isolated qubits), or [None].
      Callers that keep the pair then commit it with {!add}.

      [budget] (default unbounded) caps the number of search nodes; an
      exhausted search answers [None], so a bounded query errs toward
      refusal — sound for callers that treat refusal as "close the current
      subcircuit", never claiming an embedding that does not exist. *)

  val last_nodes : t -> int
  (** Search nodes the last {!embeds_with} query walked (at most its
      [budget]); [0] when a quick refutation answered it without a search. *)

  val last_exhausted : t -> bool
  (** Whether the last {!embeds_with} query answered [None] because its
      [budget] ran out rather than because the search space was empty. *)
end
