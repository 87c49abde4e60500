(** Subcircuit formation (paper Section 5.1).

    Gates are read into a workspace for as long as the workspace's
    two-qubit interaction pattern stays alignable with the fast interactions
    of the physical environment (a subgraph-monomorphism existence test per
    *new* interaction pair).  With a deferral window of 1 the first gate
    that breaks alignability closes the current subcircuit and opens the
    next one — the paper's greedy maximal-prefix split; wider windows let
    independent gates slide past a refused one first. *)

type oracle = {
  o_extends : int * int -> bool;
      (** Counted query: does the pattern plus this pair still embed? *)
  o_admit : int * int -> unit;  (** Commit a pair the oracle admitted. *)
  o_reset : unit -> unit;  (** Start a new subcircuit (empty pattern). *)
  o_witness : unit -> int array option;
      (** Copy of the current witness embedding, [-1] for unmapped qubits. *)
}
(** The alignability oracle behind {!fold_windowed}: the incremental
    existence search ({!Qcp_graph.Monomorph.Incremental}) behind
    accelerations that never change an answer, only its cost.  In order: a
    witness shortcut (a pair the current witness embedding covers, or can
    absorb in O(degree), is admitted), degree exclusion (a qubit already at
    the target's maximum degree refuses), an exact union-find decision on
    path targets, and on bipartite targets odd-cycle refutation — a pair
    whose endpoints the pattern already joins by an even-length path would
    close an odd cycle, which no bipartite graph contains, so it is refused
    without a search.  Every refutation is sound: it only skips searches
    that would have answered [None].  A refusal otherwise comes from the
    search, which errs toward refusal when [budget] runs out. *)

type counters = {
  mutable calls : int;  (** [o_extends] queries, however answered. *)
  mutable nodes : int;
      (** Search nodes walked by the queries that reached the incremental
          search (added once per search). *)
  mutable exhausted : int;
      (** Searches refused because [budget] ran out, not because no
          embedding exists. *)
}
(** The oracle's work, accumulated across queries and stages. *)

val counters : unit -> counters
(** All zero. *)

val make_oracle :
  ?counters:counters ->
  ?budget:int ->
  adjacency:Qcp_graph.Graph.t ->
  qubits:int ->
  unit ->
  oracle
(** A fresh oracle over [qubits] pattern vertices, charging its work to
    [counters] (default: a private record); [budget] caps search nodes per
    query (default unbounded). *)

val fold_windowed :
  ?counters:counters ->
  ?budget:int ->
  window:int ->
  adjacency:Qcp_graph.Graph.t ->
  init:'acc ->
  stage:('acc -> Qcp_circuit.Circuit.t * int array option -> 'acc) ->
  Qcp_circuit.Circuit.t ->
  ('acc, string) result
(** Streaming core of {!split_windowed}: identical stage formation, but
    each stage (subcircuit, witness) is folded into [stage] the moment it
    closes instead of being accumulated — the bounded-memory entry point.
    Stage formation itself rides {!Qcp_circuit.Dag.Stream}, so only the
    per-qubit dependency frontier, the deferral window and the current
    stage's gates are ever live; the full DAG is never materialized.
    Exceptions raised by [stage] propagate (aborting the fold). *)

val split_windowed :
  ?counters:counters ->
  ?budget:int ->
  window:int ->
  adjacency:Qcp_graph.Graph.t ->
  Qcp_circuit.Circuit.t ->
  ((Qcp_circuit.Circuit.t * int array option) list, string) result
(** Windowed subcircuit formation for million-gate circuits: gates stream
    out of the dependency frontier ({!Qcp_circuit.Dag.Stream}, default
    commutation) smallest-ready-index first.  A gate whose interaction pair
    the oracle refuses is {e deferred} rather than closing the stage, so
    independent gates slide past it and stages pack fuller; once [window]
    gates are deferred the stage closes and the deferred gates re-enter the
    ready queue.  Workspace growth is O(window) per stage — the whole
    circuit is never levelized.

    Each stage comes with the oracle's final witness embedding, when one
    exists: an array mapping qubit to environment vertex ([-1] for qubits
    without two-qubit gates in the stage), valid for every interaction pair
    of that stage.  The placer seeds candidate generation with it.

    The concatenated stage gate lists are a valid linearization of the
    dependency DAG — unitarily identical to the input circuit.  With
    [window = 1] they are the gate list itself, cut into consecutive,
    individually alignable, maximal subcircuits.  Every returned circuit
    keeps the full qubit register.  [counters], when given, accumulates
    the oracle's work: one call per monomorphism existence query — the
    paper bounds this by twice the number of two-qubit gates, and the
    oracle is only consulted for {e new} interaction pairs — plus the
    search nodes and budget cut-offs behind them.  [budget] (default 10000) caps
    search nodes per oracle query; an exhausted query defers the gate, it
    never mis-reports an error.  [Error _] exactly when some single
    interaction cannot be aligned at all (then the instance is unplaceable
    at this threshold). *)

val pattern : Qcp_circuit.Circuit.t -> Qcp_graph.Graph.t
(** The interaction graph used for alignment (alias of
    {!Qcp_circuit.Circuit.interaction_graph}). *)
