(** Drivers regenerating every table and figure of the paper's evaluation
    (Section 6), printed by [qcp report].  Each driver returns a rendered
    report; EXPERIMENTS.md records paper-vs-measured. *)

val table1 : unit -> string
(** The worked Example 3 / Table 1: per-gate finish times of the bad
    placement (770) and the optimal placement (136) of the 3-qubit encoder
    on acetyl chloride. *)

val table2 : ?jobs:int -> ?phases:bool -> ?portfolio:bool -> unit -> string
(** Mapping experimentally constructed circuits into their environments:
    circuit, environment, estimated runtime, search-space size.  [jobs]
    (default {!Qcp_util.Task_pool.env_jobs}) maps the rows over the shared
    pool via {!Qcp.Placer.place_batch}; the rendered text is byte-identical
    at any value. *)

val table3 :
  ?monomorphism_limit:int ->
  ?jobs:int ->
  ?phases:bool ->
  ?portfolio:bool ->
  unit ->
  string
(** The Threshold sweep over molecules and circuits; cells are
    "runtime (subcircuits)" or N/A.  [monomorphism_limit] defaults to the
    paper's 100.  [jobs] as in {!table2}: all cells of all sections form
    one {!Qcp.Placer.place_batch} job list. *)

val table4 :
  ?full:bool ->
  ?seed:int ->
  ?jobs:int ->
  ?phases:bool ->
  ?portfolio:bool ->
  unit ->
  string
(** Scalability on chain architectures: N, gates, hidden stages,
    subcircuits, placed circuit runtime and software wall-clock.  Default
    sweeps N = 8..128; [full] extends to 1024 (the paper needed two days for
    1024; this implementation takes minutes).  [jobs] as in {!table2};
    every column except the wall-clock one is byte-identical at any
    value. *)

val tables234 : ?jobs:int -> ?phases:bool -> ?portfolio:bool -> unit -> string
(** Tables 2, 3 and 4 back to back over one shared pool ([qcp report
    tables234]).

    For all of tables 2-4, [phases] (default [false]) appends a
    per-placed-row pipeline phase breakdown (wall seconds per phase, from
    {!Qcp.Placer.phase_seconds}) after each table; the tables themselves
    are unchanged.

    [portfolio] (default [false]) places every cell through
    {!Qcp.Portfolio.place} — the deterministic five-entry reduce —
    instead of a single classic pipeline.  Row order and determinism
    guarantees are unchanged. *)

val figure1 : unit -> string
(** Acetyl chloride interaction graph (DOT + delay listing). *)

val figure2 : unit -> string
(** The 3-qubit error-correction encoder circuit listing. *)

val figure3 : unit -> string
(** Example 4: routing the paper's 7-element permutation on the
    trans-crotonic bond graph — prints each SWAP level and the token
    configuration after it ("water and air" trace). *)

val figure4 : unit -> string
(** Separability study (Appendix Theorem 1): measured separability vs the
    1/k bound for molecule bond graphs and standard families. *)

val npc : unit -> string
(** Section 4: zero-runtime placement iff Hamiltonian cycle, on fixture
    graphs. *)

val ablation : unit -> string
(** Design-choice ablation (DESIGN.md Section 5): lookahead, fine tuning,
    leaf override, router choice, interaction reuse cap. *)

val fidelity : unit -> string
(** Extension experiment: decoherence-aware fidelity estimates of the
    Table-2 programs versus random placements (exponential dephasing with
    the molecules' T2 data). *)

val architectures : unit -> string
(** Extension experiment: the same circuits across chain / grid /
    triangulated-ladder / all-to-all 10-qubit machines with uniform
    couplings. *)

val schedule_demo : unit -> string
(** Extension: the compiled pulse timeline (ASCII Gantt) of a placed
    program, the toolchain step the paper's Section 3 points to. *)

val all : unit -> string
(** Everything above, concatenated in order. *)
