(** Automatic Threshold selection.

    The paper treats the Threshold "as a known parameter" (chosen as the
    minimal connecting value, or taken from the experimentalists) — yet its
    Table 3 shows the best value is instance-specific and non-monotone.
    This tuner sweeps the candidate thresholds that actually change the
    fast-interaction graph (the distinct coupling delays) and returns the
    placement with the smallest runtime. *)

val candidate_thresholds : Qcp_env.Environment.t -> float list
(** One value just above each distinct finite coupling delay (deduplicated,
    ascending) — every other threshold yields one of the same adjacency
    graphs. *)

val sweep :
  ?jobs:int ->
  ?options:(threshold:float -> Options.t) ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  (float * Placer.outcome) list
(** Place at every candidate threshold.  [options] builds the option record
    per threshold (default {!Options.default}); with [portfolio] set in it,
    every threshold runs the {!Portfolio} reduce.  The sweep is one
    {!Portfolio.place_batch} over at most [jobs] pool domains (default
    {!Qcp_util.Task_pool.env_jobs}; [0] runs sequentially); outcomes keep
    threshold order and are bit-identical at any [jobs] value. *)

val best : (float * Placer.outcome) list -> Placer.outcome
(** The best-runtime placement of a {!sweep} ([Unplaceable] only if every
    candidate is): the earliest (lowest) candidate threshold attaining the
    minimum runtime. *)

val auto_place :
  ?jobs:int ->
  ?options:(threshold:float -> Options.t) ->
  Qcp_env.Environment.t ->
  Qcp_circuit.Circuit.t ->
  Placer.outcome
(** [best (sweep ?jobs ?options env circuit)]: independent of [jobs]. *)
