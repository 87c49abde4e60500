(** The quantum circuit placement pipeline (paper Section 5).

    [place] turns a logical circuit and a physical environment into a
    *placed program*: an alternation of computation stages (each subcircuit
    with its own placement, aligned along fast interactions) and SWAP-network
    permutation stages [C1 E12 C2 E23 ... Ct] connecting consecutive
    placements.  Stage formation, per-stage candidate enumeration (subgraph
    monomorphism, limit [k]), fine tuning, depth-2 lookahead and routing all
    follow the paper; see {!Options}. *)

type stage =
  | Compute of { placement : int array; circuit : Qcp_circuit.Circuit.t }
      (** [placement.(q)] is the physical vertex of logical qubit [q]; the
          circuit is expressed over logical qubits. *)
  | Permute of Qcp_route.Swap_network.t
      (** SWAP levels over physical vertices. *)

(** Streaming destination for per-stage placements (spill mode): with
    the [?spill] argument of {!place} set, each placed stage leaves the
    pipeline through a sink the moment it is ready instead of
    accumulating in the program — peak heap becomes O(window +
    environment) beyond the input circuit, independent of gate count. *)
module Spill : sig
  type event =
    | Stage of {
        index : int;  (** position in the combined stage sequence *)
        placement : int array;
        circuit : Qcp_circuit.Circuit.t;
        makespan : float;  (** running makespan after this stage *)
      }
    | Network of { index : int; network : Qcp_route.Swap_network.t }

  type sink = { emit : event -> unit; close : unit -> unit }
  (** [emit] receives events strictly in stage order; [close] is called
      exactly once when the run ends: placed, [Unplaceable] (before any
      stage too) or aborted.  An exception raised by [emit] aborts the
      placement. *)

  val callback : (event -> unit) -> sink
  (** A sink from a plain callback ([close] is a no-op). *)

  val null : sink
  (** Discards every event — pure memory-bound mode. *)

  val file : string -> sink
  (** Appends one JSON object per event to the file (truncating it first):
      [{"stage": i, "kind": "compute", "gates": g, "makespan": m,
      "placement": [...]}] or [{"stage": i, "kind": "permute", "depth": d,
      "swaps": s}].  [close] closes the file. *)
end

type summary = {
  sm_computes : int;  (** number of computation stages placed *)
  sm_networks : int;  (** number of SWAP permutation stages *)
  sm_swap_depth : int;  (** total SWAP levels across permutation stages *)
  sm_swap_count : int;  (** total SWAPs across permutation stages *)
  sm_makespan : float;
      (** final makespan (delay units) — what a stage replay would give *)
  sm_first : int array option;  (** first stage's placement *)
  sm_last : int array option;  (** last stage's placement *)
}
(** What a spilled run retains about its stages: the aggregate a
    non-spilled program's accessors would compute by walking [stages]. *)

type stats = {
  oracle_calls : int;
      (** Monomorphism existence queries during workspace formation — the
          paper's "at most 2s calls" complexity driver (Section 5.3). *)
  enumerations : int;
      (** Monomorphism enumeration batches (one per candidate set). *)
  candidates_scored : int;
      (** Placement candidates evaluated through the timing model
          (including evaluations aborted by the incumbent cutoff). *)
  candidates_pruned : int;
      (** Candidate evaluations refuted before completing: lower-bound
          skips plus evaluations whose timing sweep aborted against the
          incumbent.  The pruned / scored ratio measures how much of the
          exhaustive argmin ({!place_reference}) the bounds avoided.
          Under parallel scoring the exact split is schedule-dependent
          (the chosen placement is not). *)
  lower_bound_skips : int;
      (** Candidates skipped outright because their routing-free lower
          bound (the stage-1 makespan under lookahead, the
          swap-displacement bound otherwise) already exceeded the
          incumbent. *)
  timing_early_exits : int;
      (** Timing sweeps aborted mid-circuit by the incumbent cutoff
          (includes next-stage completions inside lookahead and fine-tune
          probes). *)
  networks_routed : int;
      (** SWAP routing requests (including lookahead trials).  Counted per
          request, so the value matches the number of networks constructed
          when the score cache is off ({!place_reference});
          [route_cache_misses] is the number actually built. *)
  route_cache_hits : int;
      (** Routing requests answered from the {!Score_cache} route table —
          for every router the cross-run table of the run's graph, so
          this counts networks routed by earlier runs over the same
          environment and threshold too (a spilled run's private table
          only its own). *)
  route_cache_misses : int;
      (** Routing requests that ran the router (equals [networks_routed]
          under {!place_reference}, whose cache is off; [0] on a repeat of
          an in-core run whose routes are still in the table). *)
  scoring_seconds : float;
      (** Wall-clock seconds spent scoring candidates (routing + timing),
          across all domains' sweeps. *)
}

type program = {
  env : Qcp_env.Environment.t;
  source : Qcp_circuit.Circuit.t;
  options : Options.t;
  adjacency : Qcp_graph.Graph.t;
      (** The (connected) fast-interaction graph actually used. *)
  stages : stage list;
      (** Empty when [spilled] is [Some _] — the stages left through the
          sink. *)
  spilled : summary option;
      (** [Some _] exactly when the run streamed its stages through a
          {!Spill.sink}; the aggregate accessors ({!runtime},
          {!subcircuit_count}, {!swap_stage_count}, {!swap_depth_total},
          {!initial_placement}, {!final_placement}) consult it, while the
          stage-materializing ones ({!placements}, {!stage_circuits},
          {!to_physical_circuit}) return empty. *)
  stats : stats;
      (** Search-effort counters, a compatibility view over {!metrics}:
          both read the same per-run {!Qcp_obs.Metrics} registry. *)
  metrics : Qcp_obs.Metrics.snapshot;
      (** The run's full telemetry registry snapshot: every [stats] field
          under a ["placer.*"] name, plus per-phase wall-second gauges
          ([placer.phase.<split|enumerate|greedy|lookahead|fine_tune|route|balance>.seconds]).
          Also merged into {!Qcp_obs.Metrics.global} when the run ends. *)
}

type outcome =
  | Placed of program
  | Unplaceable of string
      (** E.g. the threshold admits no interaction (Table 3's "N/A"), or the
          circuit has more qubits than the environment. *)

val place :
  ?deadline:float ->
  ?spill:Spill.sink ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  outcome
(** [place options env circuit] runs the full pipeline: split the circuit
    into subcircuits ({!Workspace.fold_windowed} at [options.window]),
    then place them in order through one stage loop with a one-stage lag
    (depth-2 lookahead reads the successor).  A materialized run splits
    first (the ["split"] phase), optionally balances the boundaries, and
    collects the placed stages into [stages].

    [spill] arms spill mode at any window: the splitter feeds the stage
    loop directly, each stage leaves through the sink as it is placed,
    and the returned program carries a {!summary} instead of stages.
    Placed stages and the reported makespan are bit-identical to the
    same run without spilling (spill runs skip [balance_boundaries]).

    [options.portfolio] is ignored here: {!Portfolio.place} is the entry
    point that honours it.

    [deadline] (absolute {!Qcp_util.Clock} instant, default [infinity]) is
    an anytime cutoff checked between stages: once it passes, the run
    aborts with [Unplaceable] {!msg_deadline}.  Finite deadlines trade the
    library's determinism guarantee for latency control — whether a given
    stage beats the clock depends on machine load. *)

val place_reference :
  Options.t -> Qcp_env.Environment.t -> Qcp_circuit.Circuit.t -> outcome
(** The exhaustive test oracle for {!place}: the same pipeline with the
    {!Score_cache} disabled and every incumbent cutoff, lower-bound skip
    and timing early exit turned off, so each argmin scores every
    candidate in full.  {!place}'s pruning is admissible and keeps the
    earliest-index tie-break, so the two return bit-identical placements;
    the property suites check exactly that.  Not for production use: it
    does all the work the bounds exist to avoid. *)

val msg_deadline : string
(** [Unplaceable] payload of a deadline abort (exact-match classifier). *)

val runtime : program -> float
(** End-to-end runtime in delay units (1/10000 s), computed by replaying all
    stages through the timing model in the physical frame; for a spilled
    program, the summary's recorded final makespan (same value — the
    pipeline computes it from the same finish clocks a replay rebuilds). *)

val runtime_seconds : program -> float

val subcircuit_count : program -> int
(** Number of computation stages — the bracketed counts of Table 3. *)

val swap_stage_count : program -> int

val swap_depth_total : program -> int
(** Total SWAP levels across all permutation stages. *)

val swap_count_total : program -> int
(** Total SWAP gates across all permutation stages. *)

val initial_placement : program -> int array option
(** Placement of the first computation stage ([None] for an empty program). *)

val final_placement : program -> int array option

val placements : program -> int array list
(** Placements of all computation stages in order. *)

val to_physical_circuit : program -> Qcp_circuit.Circuit.t
(** The whole program flattened to one circuit over the environment's
    vertices (computation gates relabeled by their stage placements, SWAP
    stages inlined as SWAP gates). *)

val phase_seconds : program -> (string * float) list
(** Wall seconds per pipeline phase, from the snapshot's phase gauges:
    [("split", s); ("enumerate", s); ...] in snapshot (alphabetical)
    order.  Trial pipelines run by boundary balancing count toward
    ["balance"] only.  Under spill, where splitting and placing
    interleave, ["split"] is the splitter's own share: the fold's wall
    time minus the time spent placing its stages.  The phase clocks only
    run while
    {!Qcp_obs.Metrics.enabled} or {!Qcp_obs.Trace.enabled} — with
    telemetry off every gauge reads 0. *)

val pp : Format.formatter -> program -> unit
(** Human-readable stage listing with nucleus names. *)

val pp_json : Format.formatter -> stats -> unit
(** [stats] as one flat JSON object (stable key set, machine-readable). *)
