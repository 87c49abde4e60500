(** Simulated-annealing whole-circuit placement — a stronger global baseline
    than hill climbing for instances whose search space defeats exhaustive
    enumeration, used in the ablation study. *)

val solve :
  ?iterations:int ->
  ?seed:int ->
  ?start_temperature:float ->
  ?end_temperature:float ->
  ?model:Qcp_circuit.Timing.model ->
  ?reuse_cap:float ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  int array * float
(** Anneal over injective placements with a move/swap neighborhood and
    geometric cooling.  Defaults: 20_000 iterations, temperatures scaled by
    the initial cost.  Returns the best placement seen and its runtime in
    delay units.  Deterministic for a fixed [seed].  The {!Portfolio}'s
    [annealer] entry runs {!solve_restarts}. *)

val solve_restarts :
  ?restarts:int ->
  ?jobs:int ->
  ?iterations:int ->
  ?seed:int ->
  ?start_temperature:float ->
  ?end_temperature:float ->
  ?model:Qcp_circuit.Timing.model ->
  ?reuse_cap:float ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  int array * float
(** Independent annealing restarts (default 4), mapped over the shared
    {!Qcp_util.Task_pool} with at most [jobs] domains ([0], the default,
    runs them sequentially).  Each restart anneals over its own SplitMix64
    stream split off the master [seed] stream *before* the fan-out, in
    restart order, and the winner is the earliest restart attaining the
    minimum cost — so the result is a pure function of [seed] and
    [restarts], bit-identical at any [jobs] value.  Raises
    [Invalid_argument] when [restarts <= 0]. *)
