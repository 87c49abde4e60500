(** Configuration of the placement heuristic (paper Sections 5.1 and 5.3). *)

type router = Bisect | Bisect_weighted | Token | Odd_even
(** SWAP-stage construction: the paper's bisection bubble router, its
    weighted refinement (channel edges chosen by actual coupling delay),
    the naive baseline (ablation), or odd-even transposition sort (optimal
    reference on chain architectures; falls back to [Bisect] on non-path
    adjacency graphs). *)

type t = {
  threshold : float;
      (** Interactions with delay strictly below this are "fast" and usable
          (paper "Preprocessing"). *)
  monomorphism_limit : int;
      (** Max monomorphisms enumerated per subcircuit — the paper's
          [k = 100]. *)
  lookahead : bool;
      (** Depth-2 lookahead combining mapping and swap costs with the next
          stage's candidates (paper Section 5.3); when off, candidates are
          scored greedily by current-stage cost alone. *)
  fine_tune_passes : int;
      (** Hill-climbing passes over each subcircuit placement; 0 disables
          fine tuning. *)
  leaf_override : bool;
      (** The router's leaf-target value override heuristic. *)
  router : router;
  reuse_cap : float option;
      (** Cap on consecutive same-pair interaction weight (paper uses
          [Some 3.0], from [26]); [None] disables. *)
  model : Qcp_circuit.Timing.model;
  commute_prepass : bool;
      (** Apply {!Qcp_circuit.Transform.optimize_for_placement} (rotation
          merging + commutation-aware interaction packing) before placement
          — the paper's "further research" direction.  Off by default. *)
  balance_boundaries : bool;
      (** Refine the greedy maximal-prefix subcircuit boundaries by donating
          trailing gates to the next stage when that reduces the end-to-end
          runtime — the paper's other "further research" direction
          ("finding a good balance between the depth of a useful computation
          and the depth of the following swapping stage; right now, our
          method is greedy").  Runs only on the greedy split ([window =
          1]) of a run that does not spill ({!Placer.place}'s [?spill]).
          Off by default. *)
  window : int;
      (** Deferral window of subcircuit formation
          ({!Workspace.fold_windowed}): gates stream out of the dependency
          DAG, and a gate whose interaction pair would break alignability
          is deferred instead of closing the subcircuit, until [window]
          gates are deferred.  [1] (default) is the paper's greedy
          maximal-prefix split.  Larger windows let independent gates
          slide past a refused pair and pack subcircuits fuller; stage
          boundaries then differ, but placements stay semantically
          equivalent (emission order is a valid linearization of the
          dependency DAG).  Workspace growth is O(window) per subcircuit
          either way, so memory stays flat on million-gate circuits.  The
          CLI and the serve protocol reject values below 1. *)
  coarsen : bool;
      (** Hierarchical coarsen-place-refine on large environments: build a
          heavy-edge-matching hierarchy of the fast-interaction graph
          ({!Qcp_graph.Coarsen}), restrict each stage's monomorphism
          enumeration to a small connected region selected through the
          hierarchy (seeded near the previous stage's placement), and run
          fine-tuning as local refinement over adjacency neighborhoods.
          Falls back to the classic full-graph path whenever the region
          search finds no mapping, so placement never gets worse than a
          refused region.  Off by default; no effect on environments below
          the hierarchy cutoff. *)
  root_cap : int option;
      (** Sparse candidate generation: cap the first-vertex candidate set
          of each monomorphism enumeration at this many images, preferring
          degree-similar targets ({!Qcp_graph.Monomorph.enumerate}).
          [None] (default) enumerates uncapped. *)
  jobs : int;
      (** Domain budget for every parallel layer of a placement run —
          candidate-scoring sweeps, monomorphism enumeration fan-out,
          the portfolio's entries and batch fan-out all share the persistent
          {!Qcp_util.Task_pool}; [0] (the baseline default) and [1] run
          sequentially.  Placements are bit-identical at any [jobs] value:
          sweeps keep the earliest-tie argmin and enumeration merges
          partition results in candidate order.  [default] and [fast]
          initialize this from the [QCP_JOBS] environment variable
          ({!Qcp_util.Task_pool.env_jobs}), 0 when unset. *)
  portfolio : bool;
      (** Run the five {!Portfolio} entries instead of the single classic
          pipeline; the earliest entry achieving the minimum replayed
          runtime becomes the placement.  {!Portfolio.place} and
          {!Portfolio.place_batch}, the entry points of every front end,
          read it; {!Placer.place} ignores it.  Off by default: with it
          off, output is bit-identical to previous releases. *)
}

val default : threshold:float -> t
(** Paper defaults: [monomorphism_limit = 100], lookahead and fine tuning
    and leaf override on, bisection router, [reuse_cap = Some 3.0], ASAP
    timing. *)

val fast : threshold:float -> t
(** Cheap settings for large instances (Table 4 scale): [default] with
    greedy scoring, [monomorphism_limit = 8] and fine tuning off. *)

val scale : threshold:float -> t
(** [fast] plus the scale-wall machinery for 1000-qubit environments:
    [window = 64], [coarsen = true], [root_cap = Some 32]. *)

val canonical : t -> string
(** Deterministic text rendering of every field in declaration order
    ([key=value;] pairs, floats in hex notation so round-trips are exact).
    Structurally equal records render identically and any field difference
    shows up in the text — the property the serving layer's content-hash
    request keys rely on.  [jobs] is excluded on purpose: placements are
    bit-identical at any jobs value, so results may be shared across
    requests that differ only in their parallelism budget. *)
