(** Whole-circuit placement baselines (no SWAP stages).

    These provide the comparison column of Table 3 ("optimal placement when
    placed without insertion of SWAPs") and sanity baselines for the
    heuristic: exhaustive search over all [m!/(m-n)!] injective placements
    when that is affordable, multi-start hill climbing otherwise, plus
    random and identity placements. *)

val evaluate :
  ?model:Qcp_circuit.Timing.model ->
  ?reuse_cap:float ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  placement:int array ->
  float
(** Runtime (delay units) of the whole circuit under one placement, using
    the full delay matrix (slow interactions allowed at their true cost). *)

val exhaustive :
  ?limit:int ->
  ?model:Qcp_circuit.Timing.model ->
  ?reuse_cap:float ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  (int array * float) option
(** Optimal whole-circuit placement by enumerating every injective
    assignment; [None] when the search space exceeds [limit] (default
    200_000) assignments. *)

val hill_climb :
  ?model:Qcp_circuit.Timing.model ->
  ?reuse_cap:float ->
  ?passes:int ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  init:int array ->
  int array * float
(** Local search: move each qubit to each vertex (swapping occupants),
    keep improvements; up to [passes] (default 10) sweeps. *)

val random_placement :
  Qcp_util.Rng.t -> Qcp_env.Environment.t -> Qcp_circuit.Circuit.t -> int array

val lower_bound :
  ?reuse_cap:float -> Qcp_env.Environment.t -> Qcp_circuit.Circuit.t -> float
(** A placement-independent runtime lower bound: the circuit's critical
    path with every two-qubit gate charged at the environment's fastest
    coupling and every single-qubit gate at the fastest pulse, under the
    same [reuse_cap] as the placement it bounds (uncapped by default).  Any
    placement — with or without SWAP stages — timed with that cap costs at
    least this much, so [runtime / lower_bound] bounds the heuristic's
    optimality gap.  An uncapped bound is not admissible for a capped
    runtime: a long same-pair run costs less once capped. *)

val whole_best :
  ?model:Qcp_circuit.Timing.model ->
  ?reuse_cap:float ->
  ?restarts:int ->
  ?seed:int ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  int array * float
(** Best whole-circuit placement: exhaustive when affordable, otherwise the
    best of [restarts] (default 20) hill-climbed random starts. *)
