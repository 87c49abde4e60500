(** Deterministic strategy portfolio: race placers against a shared
    incumbent.

    The enabled {!Strategy} solvers attack the same instance concurrently
    over the {!Qcp_util.Task_pool}.  Every achieved runtime is published
    into one {!Incumbent} cell, so the bounded-search cutoff of each
    classic pipeline — and the lower-bound ordering of its sweeps — prunes
    against the best result {e any} strategy has produced so far, not just
    its own incumbent.

    The race is deterministic by construction (when {!Options.t.deadline}
    is [None]): a strategy either completes with output bit-identical to
    running it alone, or aborts carrying proof that its final runtime
    strictly exceeds a published value — hence it could neither win nor
    tie.  Every strategy achieving the winning runtime therefore completes
    under {e every} schedule, and the reduce (earliest strategy in
    canonical order achieving the strict minimum replayed runtime) names
    the same winner at any [jobs] value.

    With a finite deadline the race becomes an anytime search: non-anchor
    strategies abort between stages once the budget expires, while the
    anchor (first enabled strategy) ignores the clock so a race always
    returns a valid placement. *)

type status =
  | Completed of float
      (** Finished, achieving this replayed runtime (delay units). *)
  | Pruned  (** Provably unable to win or tie; abandoned mid-run. *)
  | Expired  (** Out of deadline budget. *)
  | Infeasible of string  (** Could not place the instance at all. *)

type entry = {
  strategy : string;
  status : status;
  wall_seconds : float;
  peer_prunes : int;
      (** Stage sweeps tightened and aborts caused by peers' published
          runtimes during this strategy's run. *)
}

type report = {
  program : Placer.program;  (** The winning placement. *)
  winner : string;
  runtime : float;  (** [Placer.runtime program], delay units. *)
  lower_bound : float;
      (** {!Baselines.lower_bound} — placement-independent. *)
  gap : float;
      (** [runtime /. lower_bound] ([1.0] when the bound is trivial):
          certified optimality gap of the race's result. *)
  entries : entry list;  (** One per enabled strategy, canonical order. *)
}

val run :
  ?jobs:int ->
  ?share:bool ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  (report, string) result
(** Race {!Options.t.portfolio_strategies} on the instance.  [jobs]
    defaults to [options.jobs]; strategies map over the shared pool and
    any surplus parallelism inside a strategy serializes through the
    pool's nested-use guard.  [share] (default [true]) exists for
    ablation: [false] gives every strategy a private incumbent cell, so
    cross-strategy pruning is off but each strategy still runs — the
    [portfolio/cross-prune] benchmark measures exactly this difference.
    [Error] when the strategy list is invalid or every strategy is
    infeasible.

    Telemetry (when {!Qcp_obs.Metrics.enabled}): one [portfolio/<name>]
    span per strategy under cat ["portfolio"], plus global counters
    [portfolio.races], [portfolio.strategy_wins.<name>] and
    [portfolio.candidates_pruned_by_peer].  The report's plain-int fields
    carry the same information with telemetry off. *)

val place :
  ?jobs:int ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  Placer.outcome
(** {!run} collapsed onto the classic outcome type: the winning program,
    or [Unplaceable] with the race's error. *)

val place_batch :
  ?jobs:int ->
  (Options.t * Qcp_env.Environment.t * Qcp_circuit.Circuit.t) list ->
  Placer.outcome list
(** Batch counterpart of {!place} with {!Placer.place_batch}'s contract:
    outcomes in input order, bit-identical to sequential {!place} calls
    (each job's inner race serializes when the outer fan-out saturates the
    pool). *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable race table: winner, runtime, gap, then one line per
    strategy with status, wall seconds and peer-prune count. *)
