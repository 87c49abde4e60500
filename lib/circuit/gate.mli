(** Quantum gates with NMR-style duration weights.

    Each gate carries a duration weight [T(G)] (paper Definition 2, measured
    in multiples of a 90-degree pulse): a 180-degree rotation weighs 2, a
    z-rotation weighs 0 (implemented by a rotating-frame change, paper
    Section 2), a SWAP weighs 3 (three ZZ(90) interactions).  The physical
    execution time of a placed gate is [W(v_i, v_j) * T(G)]
    (paper Definition 3). *)

type axis = X | Y | Z

type kind1 =
  | Rotation of axis * float  (** single-qubit rotation, angle in degrees *)
  | Hadamard
  | Custom1 of string * float (** name and explicit duration weight *)

type kind2 =
  | ZZ of float               (** Ising coupling gate, angle in degrees *)
  | Cnot
  | Cphase of float           (** controlled phase, angle in degrees *)
  | Swap
  | Custom2 of string * float (** name and explicit duration weight *)

type t =
  | G1 of kind1 * int               (** gate and its qubit *)
  | G2 of kind2 * int * int         (** gate, control/first, target/second *)

val duration : t -> float
(** The weight [T(G)]: 1.0 for a 90-degree X/Y rotation or ZZ(90) or CNOT or
    Hadamard, 0.0 for Z rotations, [|angle|/90] for other rotation angles,
    [|angle|/180] for controlled phases (which reduce to [ZZ(angle/2)] up to
    free z-rotations), 3.0 for SWAP, and the explicit weight for customs. *)

val write_duration : float array -> int -> t -> unit
(** [write_duration dst i gate] stores {!duration}[ gate] into [dst.(i)]
    without allocating: {!duration} returns a freshly boxed float for an
    angle gate, since it is not inlined across modules. *)

val qubits : t -> int list
(** The one or two (distinct) qubits the gate acts on. *)

val is_two_qubit : t -> bool

val map_qubits : (int -> int) -> t -> t
(** Relabel the gate's qubits. *)

val name : t -> string
(** Short mnemonic, e.g. ["Ry(90) q2"] or ["ZZ(90) q0,q1"]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Constructors} *)

val rx : int -> float -> t
val ry : int -> float -> t
val rz : int -> float -> t
val h : int -> t
val zz : int -> int -> float -> t
val cnot : int -> int -> t
val cphase : int -> int -> float -> t
val swap : int -> int -> t
val custom1 : string -> float -> int -> t
val custom2 : string -> float -> int -> int -> t
