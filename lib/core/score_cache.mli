(** Memoization backing the placer's incremental scoring engine.

    Candidate scoring re-routes the same connecting permutations over and
    over: the lookahead pair sweep, fine tuning and the final re-score of a
    stage's winner all revisit [before -> after] placements already routed
    earlier in the same placement run, and repeated runs over one
    environment revisit each other's.  A {!table} stores routed SWAP
    networks keyed by their connecting permutation, as swap sequences,
    plus the bisection router's compiled split tree
    ({!Qcp_route.Bisect_router.memo}).  Tables are shared across placement
    runs per (adjacency graph, router, leaf-override flag); a cache {!t}
    adds one run's hit/miss counters and its per-subcircuit memos
    (interaction graphs, monomorphism enumerations and compiled timing
    stages, keyed by physical identity).

    Everything cached is a deterministic function of its key, so placements
    computed with the cache enabled are bit-identical to placements computed
    without it.  Tables are lock-protected and the counters are atomic, so
    parallel candidate scoring and concurrent placement runs can share them;
    the per-subcircuit memos must only be consulted from sequential
    orchestration code. *)

type table
(** Permutation-keyed route entries in FIFO insertion order under a hard
    entry cap, plus the router memo handed to every route it computes.
    Lookups and insertions at the cap allocate nothing. *)

type t

type route_entry = Qcp_route.Swap_network.sequence
(** A routed network as the router's swaps in generation order, one word
    per swap ({!Qcp_circuit.Swap_word}: both vertices and the swap's level
    in the router's network).  Scoring times it directly
    ({!Qcp_circuit.Timing.stage_advance_swaps}): each vertex meets its
    swaps in the network's order, so clocks and verdicts are those of the
    network, and a miss builds neither the level list, nor the compressed
    levels, nor a SWAP circuit.  The placer converts an entry to a list
    network ({!Qcp_route.Swap_network.compressed} for the bisection
    routers, {!Qcp_route.Swap_network.levels} for the others) only for
    the stages it keeps. *)

val shared :
  Qcp_graph.Graph.t -> router:Options.router -> leaf_override:bool -> table
(** The cross-run table for routes over [graph] by [router], from a
    weak-keyed registry: the graph's physical identity is the key, and the
    table dies with its graph.  Sharing is sound because every router's
    output — the weighted router's included — is a pure function of
    [(graph, router, leaf_override, perm)]:
    {!Qcp_env.Environment.connected_adjacency} memoizes each graph inside
    the environment that owns it, whose delays never change (it hands one
    graph to several thresholds of that environment, never to two
    environments).  The table
    holds at most {!route_capacity} entries; at the cap, inserting a new
    entry evicts the {e oldest inserted} one (FIFO), so the surviving set
    is a deterministic function of the insertion sequence and a daemon
    replaying identical traffic sees identical hit patterns. *)

val private_copy : table -> table
(** A fresh, empty table with [table]'s cap, sharing its router memo (the
    subset structure is small and permutation-independent) but none of its
    entries — for a run that must not leave its routes in the cross-run
    table.  The only kind of table {!trim} clears. *)

val uncached : unit -> table
(** A table of capacity 0 with no router memo: every lookup recomputes
    from scratch (and counts a miss).  A cache over it also skips the
    subcircuit memos — the exhaustive test oracle {!Placer.place_reference}. *)

val route_capacity : int
(** Entry cap of every table except {!uncached}.  Exposed for the
    eviction-order tests. *)

val create : table -> t
(** A fresh cache for one placement run over [table], with zeroed counters
    and empty subcircuit memos. *)

val route :
  t ->
  route:(Qcp_route.Bisect_router.memo option -> Qcp_route.Perm.t -> route_entry) ->
  Qcp_route.Perm.t ->
  route_entry
(** The routed network for a permutation from the table, or by calling
    [route] with the table's memo and storing the result under a copy of
    [perm] (so [perm] may be a reused scratch array).  Hits and misses
    count into this cache's counters.  A hit allocates nothing; a miss
    allocates what [route] does plus the stored key (and, while the table
    is still below its cap, an occasional doubling of its slots). *)

val interaction_graph : t -> Qcp_circuit.Circuit.t -> Qcp_graph.Graph.t
(** Memoized {!Qcp_circuit.Circuit.interaction_graph} (physical identity
    key).  Sequential callers only. *)

val mappings :
  t ->
  enumerate:(Qcp_circuit.Circuit.t -> int array list) ->
  Qcp_circuit.Circuit.t ->
  int array list
(** Memoized monomorphism enumeration per subcircuit (physical identity
    key); assumes [enumerate] is fixed for the cache's lifetime, as it is
    within one placement run.  Sequential callers only. *)

val compiled : t -> Qcp_circuit.Circuit.t -> Qcp_circuit.Timing.stage
(** Memoized {!Qcp_circuit.Timing.compile} (physical identity key), so
    each subcircuit is compiled once for every timing sweep over it.
    Sequential callers only. *)

val trim : t -> unit
(** For a cache over a {!private_copy}: drop the table's route entries and
    this run's subcircuit memos.  Over any other table, a no-op — trimming
    a {!shared} table would discard other runs' routes, and an in-core run
    keeps its memos.  Every entry is a deterministic pure function of its
    key, so trimming can only cost recomputation, never change a
    placement.  The placer calls this after each placed stage; only a
    spill run's private table is affected: connecting permutations are
    rarely shared across stages and the memos key whole stage
    subcircuits, so without trimming these are the structures that would
    grow with gate count on a multi-thousand-stage run.  Sequential
    callers only (the memos are unlocked). *)

val hits : t -> int
(** Route-cache hits so far. *)

val misses : t -> int
(** Route-cache misses (= networks actually routed). *)
