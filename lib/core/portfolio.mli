(** The placement entry point of every front end, and the deterministic
    strategy portfolio: run five placers and keep the best.

    {!place} and {!place_batch} are what the CLI, the serving layer, the
    threshold {!Tuner} and the report drivers call.  With
    [options.portfolio] off they are {!Placer.place}; with it on they run
    the reduce below.

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
  ?deadline:float ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  (report, string) result
(** Run every entry on the instance and reduce, whatever
    [options.portfolio] says.  Entries map over the shared pool with at
    most [options.jobs] domains; any surplus parallelism inside an entry
    serializes through the pool's nested-use guard.  [Error] when no entry
    completes.

    [deadline] (absolute {!Qcp_util.Clock} instant, default [infinity])
    goes to the classic entries' {!Placer.place}; the annealer, whose
    budget is a fixed iteration count, checks it once before it starts.  If any entry aborts on it, the result is exactly
    [Error] {!Placer.msg_deadline}, never a winner among the entries that
    finished, so an [Ok] report is a function of the instance and options
    alone.

    Telemetry (when {!Qcp_obs.Metrics.enabled}): a [portfolio/race] span
    with one [portfolio/<name>] span per entry under cat ["portfolio"],
    plus global counters [portfolio.races] and
    [portfolio.strategy_wins.<name>]. *)

val place :
  ?deadline:float ->
  ?on_report:(report -> unit) ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  Placer.outcome
(** The one placement entry point.  With [options.portfolio] off it is
    {!Placer.place} [?deadline]; with it on, {!run} collapsed onto the
    classic outcome type: the winning program, or [Unplaceable] with the
    reduce's error ({!Placer.msg_deadline} after a deadline abort).
    [on_report] receives a successful reduce's report (never called with
    the portfolio off).  Spilling is {!Placer.place}'s alone: the reduce
    replays every entry's stages. *)

val place_batch :
  ?jobs:int ->
  ?deadline_of:(int -> float) ->
  (Options.t * Qcp_env.Environment.t * Qcp_circuit.Circuit.t) list ->
  Placer.outcome list
(** [place_batch ~jobs specs] places every [(options, env, circuit)] job
    through {!place}, mapping the jobs over the shared
    {!Qcp_util.Task_pool} with at most [jobs] domains ([0], the default,
    runs sequentially).  Classic and portfolio specs mix freely.  Outcomes
    are returned in input order and are bit-identical to calling {!place}
    on each spec in turn: concurrent jobs serialize their own inner
    parallel layers (a portfolio job's entries included) through the
    pool's nested-use guard, and the only cross-job state — the
    per-threshold adjacency memo and the cross-run route tables of
    {!Score_cache} — is mutex-protected and deterministic.  Jobs sharing
    an environment, threshold, router and leaf-override flag share one
    physical adjacency graph and hence one route table, so batch runs
    reuse routed SWAP networks across jobs exactly like repeated
    sequential {!place} calls do, whichever the router.

    [deadline_of i] (default: [infinity] for every job) is job [i]'s
    absolute anytime deadline, forwarded to {!place}'s [?deadline] — the
    serving layer batches requests with per-request timeout budgets
    through this. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable table: winner, runtime, gap, then one line per entry
    with status and wall seconds. *)
