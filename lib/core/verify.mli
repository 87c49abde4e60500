(** Semantic verification of placed programs via state-vector simulation.

    A placed program must implement the source circuit exactly: feeding the
    logical input through the initial placement, executing every stage
    (computation gates relabeled, SWAP stages inlined) and reading the
    result at the final placement must reproduce the source circuit's
    output state.  Blank vertices must stay in |0>. *)

val embed_input :
  m:int -> placement:int array -> input:int -> Qcp_sim.Statevec.t
(** The [m]-vertex basis state holding logical basis input [input] at
    [placement] (logical qubit [q] on vertex [placement.(q)]), blanks at
    |0>. *)

val expected_physical :
  m:int -> final:int array -> logical_state:Qcp_sim.Statevec.t -> Complex.t array
(** The amplitudes of [logical_state] re-indexed onto [m] vertices through
    the final placement, blanks at |0>. *)

val equivalent : ?inputs:int list -> Placer.program -> bool
(** Check the given basis inputs (default: all [2^n] when [n <= 6], else
    inputs [0], [1] and [2^n - 1]): each is fed through the initial
    placement, and the physical output must equal {!expected_physical}
    exactly.  Environments beyond ~14 vertices are rejected with
    [Invalid_argument] (state too large); raises
    {!Qcp_sim.Statevec.Unsupported} if the circuit contains custom gates
    without simulation semantics. *)

val equivalent_sampled :
  Qcp_util.Rng.t -> samples:int -> Placer.program -> bool
(** Check [samples] random basis inputs. *)

(** Streaming structural verification of a spilled run's line-JSON file
    ({!Options.t.spill} / [place --spill FILE]).

    A spilled program never materializes its stages, so the state-vector
    checks above cannot apply; what the spill file {e does} record per
    stage — indices, kinds, placements and the running makespan — supports
    a structural audit at constant memory: one line is held at a time,
    plus O(qubits) scratch.  This closes the loop for spill consumers: a
    file that passes came out of a well-formed placement stream. *)
module Stream : sig
  type report = {
    computes : int;  (** compute stages seen *)
    networks : int;  (** permute stages seen *)
    swap_depth : int;  (** total SWAP levels *)
    swap_count : int;  (** total SWAPs *)
    makespan : float;  (** final running makespan (delay units) *)
    qubits : int;  (** placement width *)
    first : int array option;  (** first stage's placement *)
    last : int array option;  (** last stage's placement *)
  }
  (** Mirrors {!Placer.summary}: for the file written by the run, the
      corresponding fields agree exactly. *)

  val verify_file : ?register:int -> string -> (report, string) result
  (** Fold over the file's stage events, checking line by line:

      - every line parses as a JSON object with a dense [stage] index
        (0, 1, 2, ... in order) and a known [kind];
      - the stage sequence has the placed-program shape
        [compute (permute compute)*] — it opens with a compute stage,
        permute stages are single and always followed by a compute;
      - every placement is injective, non-negative, of constant width
        and (when [register], the environment size, is given) within
        [0, register);
      - the running [makespan] never decreases (physical clocks are
        monotone across stages);
      - permute stages carry [swaps >= depth >= 0] (every level performs
        at least one SWAP).

      [Error] pinpoints the first offending line ([line N: ...]); [Ok]
      returns the aggregate a {!Placer.summary} would carry. *)
end
