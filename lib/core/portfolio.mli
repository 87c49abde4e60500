(** Deterministic strategy portfolio: run five placers and keep the best.

    Five fixed entries place the same instance, each on its own, in
    canonical order: [greedy] (the classic pipeline scoring by
    current-stage cost alone), [lookahead] (the paper default), [boundary]
    (lookahead plus boundary balancing), [annealer] (whole-circuit
    simulated annealing as one computation stage, the paper's no-SWAP
    column) and [scale] (windowed stage formation, coarsen-place-refine,
    sparse candidate roots).  Entries may fan out over the
    {!Qcp_util.Task_pool}; none reads another's state.

    The reduce keeps the earliest entry in canonical order achieving the
    strict minimum replayed runtime ({!Placer.runtime}).  Every entry is a
    pure function of its options and instance, so the winner, its stages
    and its runtime are the same at any [jobs] value.  An entry whose
    replayed runtime is not finite (a placement over an absent coupling)
    counts as [Infeasible]. *)

type status =
  | Completed of float
      (** Finished, achieving this replayed runtime (delay units). *)
  | Infeasible of string
      (** Could not place the instance, or placed it at a non-finite
          runtime. *)

type entry = { strategy : string; status : status; wall_seconds : float }

type report = {
  program : Placer.program;  (** The winning placement. *)
  winner : string;
  runtime : float;  (** [Placer.runtime program], delay units. *)
  lower_bound : float;
      (** {!Baselines.lower_bound} under the options' reuse cap —
          placement-independent. *)
  gap : float;
      (** [runtime /. lower_bound] ([1.0] when the bound is trivial):
          certified optimality gap of the portfolio's result. *)
  entries : entry list;  (** One per entry, canonical order. *)
}

val run :
  ?jobs:int ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  (report, string) result
(** Run every entry on the instance and reduce.  [jobs] defaults to
    [options.jobs]; entries map over the shared pool and any surplus
    parallelism inside an entry serializes through the pool's nested-use
    guard.  [Error] when no entry completes.

    Telemetry (when {!Qcp_obs.Metrics.enabled}): a [portfolio/race] span
    with one [portfolio/<name>] span per entry under cat ["portfolio"],
    plus global counters [portfolio.races] and
    [portfolio.strategy_wins.<name>]. *)

val place :
  ?jobs:int ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  Placer.outcome
(** {!run} collapsed onto the classic outcome type: the winning program,
    or [Unplaceable] with the reduce's error. *)

val place_batch :
  ?jobs:int ->
  (Options.t * Qcp_env.Environment.t * Qcp_circuit.Circuit.t) list ->
  Placer.outcome list
(** Batch counterpart of {!place} with {!Placer.place_batch}'s contract:
    outcomes in input order, bit-identical to sequential {!place} calls
    (each job's entries serialize when the outer fan-out saturates the
    pool). *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable table: winner, runtime, gap, then one line per entry
    with status and wall seconds. *)
