(** Memoization backing the placer's incremental scoring engine.

    Candidate scoring re-routes the same connecting permutations over and
    over: the lookahead pair sweep, fine tuning and the final re-score of a
    stage's winner all revisit [before -> after] placements already routed
    earlier in the same placement run.  This cache stores, per run:

    - routed SWAP networks keyed by their connecting permutation, together
      with their physical SWAP-circuit form (the timing model's input);
    - the bisection router's permutation-independent subset structure
      ({!Qcp_route.Bisect_router.memo});
    - per-subcircuit interaction graphs and monomorphism enumerations,
      keyed by physical identity.

    Everything cached is a deterministic function of its key, so placements
    computed with the cache enabled are bit-identical to placements computed
    without it.  The route table is lock-protected and its counters are
    atomic, so parallel candidate scoring can share one cache; the
    per-subcircuit memos must only be consulted from sequential
    orchestration code. *)

type t

type route_entry = {
  network : Qcp_route.Swap_network.t;
  swap_circuit : Qcp_circuit.Circuit.t;
      (** [Swap_network.to_circuit] of [network] over the full register,
          memoized so scoring never rebuilds it. *)
}

val create : ?enabled:bool -> register:int -> unit -> t
(** A fresh cache for one placement run over a [register]-vertex
    environment.  With [enabled = false] every lookup recomputes (and
    counts a miss) — the cache of the exhaustive test oracle
    {!Placer.place_reference}. *)

val route :
  t -> route:(Qcp_route.Perm.t -> Qcp_route.Swap_network.t) -> Qcp_route.Perm.t -> route_entry
(** The routed network for a permutation, from cache or by calling [route]. *)

val bisect_memo : t -> Qcp_route.Bisect_router.memo option
(** This run's private router memo ([None] when the cache is disabled) —
    for routes whose subset structure depends on more than the graph
    (e.g. a weighted channel choice). *)

val shared_bisect_memo :
  t -> Qcp_graph.Graph.t -> Qcp_route.Bisect_router.memo option
(** The cross-run router memo for [graph] ([None] when the cache is
    disabled), from a weak-keyed per-graph registry.  Split structure is a
    deterministic function of the graph alone, so sharing it across
    placement runs cannot change any result; entries are dropped by the GC
    together with their graph. *)

val shared_route :
  t ->
  Qcp_graph.Graph.t ->
  leaf_override:bool ->
  route:(Qcp_route.Bisect_router.memo -> Qcp_route.Perm.t -> Qcp_route.Swap_network.t) ->
  Qcp_route.Perm.t ->
  route_entry option
(** The routed network for a permutation from the cross-run per-graph
    registry, or by calling [route] with the registry's memo and storing
    the result.  Only for routes that are a pure function of
    [(graph, leaf_override, perm)] — i.e. the unweighted bisection router —
    so sharing across placement runs cannot change any result.  Returns
    [None] (caller falls back to the per-run {!route} table) when the cache
    is disabled or the registry entry was built for a different register
    width.  Hits and misses count into this cache's counters as usual. *)

val shared_route_capacity : int
(** Hard entry cap of each cross-run per-graph route table (one per
    [leaf_override] value).  At the cap, inserting a new entry evicts the
    {e oldest inserted} one (FIFO): the surviving set is a deterministic
    function of the insertion sequence, so a daemon replaying identical
    traffic sees identical hit patterns.  Exposed for the eviction-order
    tests. *)

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

val trim : t -> unit
(** Drop this run's route table and subcircuit memos.  Every entry is a
    deterministic pure function of its key, so trimming can only cost
    recomputation, never change a placement.  The streaming spill driver
    calls this after each placed stage: connecting permutations are
    rarely shared across stages and the memos key whole stage
    subcircuits, so without trimming these tables are the structures that
    would grow with gate count on a multi-thousand-stage run.  Sequential
    callers only (the memos are unlocked). *)

val hits : t -> int
(** Route-cache hits so far. *)

val misses : t -> int
(** Route-cache misses (= networks actually routed). *)
