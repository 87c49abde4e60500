(** Placement strategies behind one race-ready interface.

    A strategy is a named solver that attacks the whole placement problem
    and either completes with a placed program and its replayed runtime, or
    explains why it stopped.  All strategies speak the same protocol so
    {!Portfolio} can race them against a shared {!Incumbent} cell:

    - every runtime a strategy {e publishes} into the cell must be the
      achieved (replayed) runtime of a realizable program — never an
      estimate — so peers may prune against it soundly;
    - a completing strategy must return output bit-identical to running it
      alone (racing may only make strategies {e stop earlier}, never
      change what they produce);
    - an aborted strategy must be provably unable to win or tie the race
      ([Pruned]), out of time ([Expired]), or genuinely stuck
      ([Infeasible]). *)

type result =
  | Complete of Placer.program * float
      (** The program and its {!Placer.runtime} (delay units), already
          published into the shared cell. *)
  | Pruned
      (** Abandoned mid-run: an exact stage re-time strictly exceeded a
          peer's published runtime, so this strategy's final result could
          neither win nor tie. *)
  | Expired  (** The deadline passed before the strategy finished. *)
  | Infeasible of string
      (** The strategy cannot place this instance (e.g. no monomorphism
          under the threshold); the payload is the {!Placer.Unplaceable}
          message. *)

type verdict = {
  result : result;
  peer_prunes : int;
      (** Stage sweeps tightened and pipeline aborts caused by the shared
          cell during this run ([placer.pruned_by_peer]); 0 for solvers
          that never read the cell. *)
}

type t = {
  name : string;  (** Unique, from {!Options.all_strategies}. *)
  solve :
    deadline:float ->
    shared:Incumbent.t ->
    Options.t ->
    Qcp_env.Environment.t ->
    Qcp_circuit.Circuit.t ->
    verdict;
      (** [deadline] is an absolute {!Qcp_util.Clock} instant ([infinity]:
          none); [shared] the race's incumbent cell (pass a fresh cell to
          run solo).  Budgets come from the options and the strategy's
          own constants, never from earlier runs. *)
}

val greedy : t
(** The classic pipeline scoring candidates by current-stage cost alone
    ([lookahead = false]): the cheap strategy whose early finish seeds the
    incumbent for the expensive ones. *)

val lookahead : t
(** The paper-default pipeline (depth-2 lookahead, [balance_boundaries]
    off). *)

val boundary : t
(** Lookahead plus boundary balancing ([balance_boundaries = true]) — the
    paper's "further research" splitter refinement. *)

val annealer : t
(** Whole-circuit simulated annealing ({!Annealer.solve_restarts}) wrapped
    as a single-computation-stage program — the paper's no-SWAP comparison
    column, free to use slow couplings at their true cost.  Publishes every
    best-cost improvement mid-run but never reads the cell back (its walk
    stays a pure function of its seed), so it can seed peers' pruning yet
    cannot itself be pruned. *)

val scale : t
(** The scale-wall pipeline (greedy scoring, windowed stage formation,
    coarsen-place-refine, sparse candidate roots, one V-cycle refinement
    pass) — pays stage-formation overhead small instances don't need but
    wins on large environments, where the full-graph strategies stall.
    Caller-set values are kept ([window] above the default 1, [root_cap],
    [vcycle]); the default window becomes 64.  Spilling is
    forced off so the resulting program replays for the reduce. *)

val all : t list
(** Every strategy, in canonical race order ({!Options.all_strategies}). *)

val find : string -> (t, string) Stdlib.result
(** Strategy by name; [Error] names the unknown string and the valid
    set. *)

val resolve : string list -> (t list, string) Stdlib.result
(** Normalize an {!Options.t.portfolio_strategies} list: validate every
    name, drop duplicates, and return the survivors in canonical order.
    [Error] on an unknown name or an empty selection. *)
