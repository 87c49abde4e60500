(** Density-matrix simulation with dephasing noise.

    Validates the analytic decoherence model of the placement layer: a qubit
    idling for time [dt] on a nucleus with dephasing time [T2] loses its
    off-diagonal coherence by [exp (-dt /. t2)] — the phase-damping channel
    [rho -> (1-p) rho + p Z rho Z] with [p = (1 - exp (-dt /. t2)) /. 2].
    Intended for small registers (n <= ~6: [4^n] complex entries). *)

type t
(** An [n]-qubit density matrix. *)

val of_statevec : Statevec.t -> t
(** The pure state [|psi><psi|]. *)

val trace : t -> float
(** Real part of the trace (1 for normalized states). *)

val purity : t -> float
(** [tr (rho^2)]: 1 for pure states, down to [1/2^n] for maximally mixed. *)

val apply_gate : Qcp_circuit.Gate.t -> t -> t
(** Conjugation by the gate's matrix: [U rho U+]. *)

val run_circuit : Qcp_circuit.Circuit.t -> t -> t

val dephase : qubit:int -> p:float -> t -> t
(** The phase-damping channel with flip probability [p] in [0, 1/2]. *)

val dephase_for : qubit:int -> time:float -> t2:float -> t -> t
(** [dephase] with [p = (1 - exp (-time /. t2)) /. 2]; no-op for infinite
    [t2]. *)

val fidelity_to : Statevec.t -> t -> float
(** [<psi| rho |psi>]. *)
