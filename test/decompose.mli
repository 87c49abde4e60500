(** Rewriting circuits into the native NMR gate set {Rx, Ry, Rz, ZZ}.

    Paper Section 2: "every circuit with single qubit and CNOT gates can be
    easily rewritten in terms of single qubit rotations Rx, Ry and Rz, and
    the ZZ(90) gates, and such a rewriting operation does not change a
    particular instance of the associated placement problem."

    Identities used (each verified against the simulator in the tests, all
    up to global phase):
    - H          = Ry(90) . Rz(180)            (Rz applied first)
    - CP(t)      = Rz_a(t/2) Rz_b(t/2) ZZ(-t/2)
    - CNOT(c,t)  = H_t CZ H_t with CZ = CP(180)
    - SWAP       = CNOT(a,b) CNOT(b,a) CNOT(a,b)

    Custom gates have unknown semantics and are left untouched. *)

module Gate = Qcp_circuit.Gate
module Circuit = Qcp_circuit.Circuit

val native_gate : Gate.t -> Gate.t list
(** The replacement sequence (in application order); native gates map to a
    singleton of themselves. *)

val is_native : Circuit.t -> bool
(** Only Rx/Ry/Rz/ZZ gates (customs are not native). *)

val to_native : Circuit.t -> Circuit.t
(** Rewrite every supported gate; custom gates pass through unchanged. *)

val interaction_invariant : Circuit.t -> bool
(** The rewrite must not change the placement instance: the interaction
    graphs of the circuit and its rewriting coincide. *)
