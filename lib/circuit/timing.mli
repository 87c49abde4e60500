(** Circuit runtime under a placement (paper Section 3).

    The default model is the ASAP recurrence of the paper: a gate starts as
    soon as all its qubits are free, i.e. gates from the next level may start
    before the current level completes.  The [Sequential] model instead runs
    logic levels one after the other with a barrier in between; both are
    mentioned as supported by the paper's implementation.

    A placed gate [G(q_i, q_j)] costs [W(P q_i, P q_j) * T(G)] where [W] comes
    from the physical environment and [T] is {!Gate.duration}.

    [reuse_cap] implements the Section 6 refinement based on [26] (Zhang et
    al.): no two-qubit unitary needs more than three uses of the same
    interaction, so the accumulated duration weight of an uninterrupted run of
    two-qubit gates on one pair is capped (the paper uses 3).  Single-qubit
    gates do not interrupt a run (local gates come for free in the [26]
    decomposition); a two-qubit gate on an overlapping pair does.  A two-qubit
    gate of effective duration 0 (a capped repeat, or a zero-duration
    gate) costs nothing whatever its delay, so a capped run over an absent
    coupling (delay [infinity]) finishes at [infinity], not NaN.

    The module implements the recurrence once: one two-qubit step, one
    ASAP loop over a compiled gate list, one loop over packed SWAP arrays
    and one sequential fold.  The ASAP loops take a plain float limit and
    return a verdict; an infinite limit is the unbounded sweep, since no
    clock exceeds it.  {!finish_times} runs the same gate loop over the
    circuit's own (logical) register, reading delays through [place] and
    compiling the circuit a chunk at a time into a per-domain buffer, so
    it allocates its clock arrays once and nothing per gate. *)

type weights = float array array
(** The delay matrix of the physical register, as
    {!Qcp_env.Environment.weights} stores it: [w.(v).(v)] is the delay of
    a weight-1 single-qubit gate on vertex [v], [w.(u).(v)] that of a
    weight-1 two-qubit gate on the pair.  Read, never written. *)

type model = Asap | Sequential

val finish_times :
  ?model:model ->
  ?reuse_cap:float ->
  ?start:float array ->
  weights:weights ->
  place:(int -> int) ->
  Circuit.t ->
  float array
(** Per-qubit finish times.  [start] (default all zeros, length = circuit
    qubits) gives each qubit's ready time, enabling incremental evaluation of
    concatenated stages.  [place] is called once per circuit qubit, each
    must land inside [weights]. *)

val runtime :
  ?model:model ->
  ?reuse_cap:float ->
  ?start:float array ->
  weights:weights ->
  place:(int -> int) ->
  Circuit.t ->
  float
(** [max] of {!finish_times} (0.0 for an empty circuit with zero starts). *)

val identity_place : int -> int
(** Convenience placement for circuits already expressed over physical
    vertices. *)

(** {1 Compiled stages} *)

type stage
(** A circuit compiled once into flat arrays -- qubit a, qubit b (-1 for
    a one-qubit gate) and the precomputed {!Gate.duration} of each gate,
    in circuit order -- so a timing sweep reads no gate variant and calls
    no duration function.  Immutable once built. *)

val compile : Circuit.t -> stage

(** {1 Placed timing}

    The placer's hot loop times a *logical* subcircuit under a candidate
    placement against the physical register's clocks.  These entry points
    run the recurrence over the compiled stage with physical-indexed
    state, reading the clock of qubit [q] at vertex [place.(q)] and its
    delays from the matrix at that vertex, so no remapped circuit
    ([Circuit.map_qubits]) is ever materialized; the float operations
    execute in the same order as timing the remapped circuit, making
    results bit-identical.  Every argument is plain (no optional
    argument, no closure), so a call allocates nothing under {!Asap}. *)

type scratch
(** Reusable physical-clock buffers, so the candidate-scoring inner loop
    allocates nothing per evaluation.  A scoring pass loads the current
    clocks with {!stage_start} or {!stage_load}, advances them through one
    or more stages ({!stage_advance} — e.g. a connecting SWAP stage then
    the subcircuit), and reads the makespan off with {!stage_makespan}.
    Interaction-run state is never cleared: each sweep takes fresh pair
    codes.  Not thread-safe: use one scratch per domain. *)

val make_scratch : unit -> scratch
(** An empty scratch; buffers grow on demand to the largest register seen. *)

val stage_start : scratch -> float array -> unit
(** Load per-vertex ready clocks (defines the register size). *)

val stage_load : scratch -> float array -> pos:int -> len:int -> unit
(** [stage_load scratch src ~pos ~len] loads the [len] clocks
    [src.(pos) .. src.(pos + len - 1)] (a row of a clock matrix, say),
    defining the register size as [len]. *)

val clocks : scratch -> float array
(** The live clock buffer: its first [len] cells are the loaded clocks
    (for the [len] of the last load).  A caller may raise a clock in place
    -- e.g. to fold a per-vertex lower bound on an elided stage into the
    start clocks before advancing the next stage -- or read the clocks
    without copying them.  Overwritten by the next load or advance. *)

val stage_advance :
  model:model ->
  reuse_cap:float option ->
  cutoff:float ->
  weights:weights ->
  place:int array ->
  scratch ->
  stage ->
  bool
(** Advance the loaded clocks across one placed stage, qubit [q] on
    vertex [place.(q)].  Interaction-run state (the [reuse_cap]
    accounting) is fresh per call, exactly as in a separate
    {!finish_times} call per stage.

    [cutoff] [infinity] is the unbounded sweep; there is no separate
    path.  The sweep aborts and returns [false] the moment any clock
    strictly exceeds [cutoff].  This refutation
    is admissible because the recurrence is monotone: durations and
    weights are nonnegative and a two-qubit finish is the max of its
    operand clocks plus a nonnegative delay, so clocks never decrease and
    the final makespan is at least any intermediate clock.  Hence [false]
    proves the stage makespan would strictly exceed [cutoff], while [true]
    leaves clocks bit-identical to the unbounded sweep.  After [false] the
    scratch clocks are partially advanced and unspecified; reload them
    before the next evaluation. *)

val stage_advance_swaps :
  model:model ->
  reuse_cap:float option ->
  cutoff:float ->
  weights:weights ->
  scratch ->
  int array ->
  bool
(** [stage_advance_swaps scratch swaps] is {!stage_advance} with the
    identity placement over the circuit of SWAP gates
    [Gate.swap (Swap_word.u w) (Swap_word.v w)] for each word [w] of
    [swaps], in order, on physical vertices -- without building that
    circuit under {!Asap}: the float operations run in the same order, so
    the verdict and the clocks are bit-identical.  The words' levels are
    not read.  Under either model only each vertex's own order of swaps
    matters (the {!Sequential} levelization is per-vertex ASAP too), so
    any order that keeps it -- a router's generation order, or its
    network level by level -- times the same.  {!Sequential} builds the
    circuit (it needs the levelization).  Raises [Invalid_argument] on a
    vertex outside the loaded register. *)

val stage_makespan : scratch -> float
(** [max 0] of the loaded clocks. *)

val stage_clocks : scratch -> float array
(** A fresh copy of the loaded clocks (length = the register size loaded by
    {!stage_start}) — e.g. to restart later evaluations from a completed
    stage's finish times. *)
