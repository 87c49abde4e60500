(** Circuit identities and commutation-aware reordering.

    The paper's concluding section names "using gate commutation (more
    generally, circuit identities) to transform an instance of the circuit
    placement problem into a possibly more favorable one" as further
    research; this module implements that direction:

    - {!commutes}: a sound (conservative) commutation predicate — gates on
      disjoint qubits, diagonal gates (Rz / ZZ / controlled phase) among
      themselves, same-axis rotations on one qubit, identical gates.
    - {!merge_rotations}: fuse mergeable neighbors (modulo commutation) —
      same-axis rotations and same-pair ZZ / controlled-phase gates — and
      drop gates that became trivial.
    - {!pack_interactions}: reorder the circuit (respecting commutation) so
      that two-qubit gates on the pair currently "open" come first and new
      interaction pairs are opened as late as possible, which lets the
      greedy workspace formation of the placer build larger subcircuits.

    All transformations preserve the circuit's unitary exactly (up to global
    phase for dropped full rotations); property tests check this with the
    simulator. *)

val commutes : Gate.t -> Gate.t -> bool
(** Conservative commutation test (never claims commutation falsely). *)

val merge_rotations : Circuit.t -> Circuit.t
(** Fuse and clean.  Angles are summed; gates with angle 0 (mod 360) are
    removed.  Gate count never increases. *)

val pack_interactions : Circuit.t -> Circuit.t
(** Commutation-respecting reordering that groups gates by interaction pair.
    The multiset of gates is unchanged. *)

val optimize_for_placement : Circuit.t -> Circuit.t
(** [merge_rotations] followed by [pack_interactions]. *)
