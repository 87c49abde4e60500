(** Gate dependency DAGs.

    Two gates are ordered when they touch a common qubit and do not commute
    under the supplied predicate (default: only gates on disjoint qubits
    commute).  The DAG underlies the commutation-aware transformations of
    {!Transform} — the paper's "further research" direction of using gate
    commutation to turn a placement instance into a more favorable one. *)

type t

val build : ?commute:(Gate.t -> Gate.t -> bool) -> Circuit.t -> t
(** Gates are indexed by their position in the circuit's gate list.

    Without [commute] the per-qubit frontier is pruned to the last gate
    seen — an exact transitive reduction (every earlier gate on the qubit
    is reachable through it), so edge lists and build time are linear in
    the gate count.  With [commute] the full commuting window is kept per
    qubit: a blocked gate can still conflict with a later gate that
    commutes with its blocker, so no window entry is ever dominated. *)

val size : t -> int

val preds : t -> int -> int list
(** Direct (transitively reduced within shared qubits) predecessors. *)

val succs : t -> int -> int list

val is_valid_order : t -> int list -> bool
(** Whether a gate-index permutation respects every dependency. *)

val reorder : t -> int list -> Circuit.t
(** The circuit with gates emitted in the given order.
    Raises [Invalid_argument] if the order is not a valid linearization. *)

(** Streaming dependency frontier for bounded-memory stage formation.

    Yields ready gates incrementally from the gate array without ever
    materializing the full DAG: only the per-qubit frontier (last
    blocking gate, or the commuting window under a custom predicate) and
    the gates the consumer holds open are live — O(qubits + live) state
    instead of O(gates) edge lists.  Gates are pulled from the array only
    while no pulled gate is ready, so every pulled index lies below the
    scan cursor and every unpulled one at or above it: the pop order of
    {!Stream.next} is identical to draining a min-heap over the offline
    {!build} DAG's ready set.  The worst-case live set is input-dependent
    (a refused gate heading one long chain forces the scan past its whole
    tail), but on layered circuits it stays near the deferral window. *)
module Stream : sig
  type t

  val create : ?commute:(Gate.t -> Gate.t -> bool) -> Circuit.t -> t
  (** Same dependency semantics as {!build} with the same [commute]. *)

  val next : t -> int option
  (** Pop the smallest ready gate index, pulling further gates from the
      array as needed; [None] when no gate is ready (every live gate is
      popped-but-unemitted or blocked by one — the consumer should emit
      or {!requeue} what it holds, or stop when done). *)

  val gate : t -> int -> Gate.t

  val emit : t -> int -> unit
  (** Commit a popped gate: its waiting successors' blocker counts drop
      and newly ready ones enter the pool.  Raises [Invalid_argument] if
      the gate was never pulled or was already emitted. *)

  val requeue : t -> int -> unit
  (** Return a popped, unemitted gate to the ready pool (stage close:
      deferred gates become eligible against the fresh pattern). *)

  val emitted_count : t -> int

  val live : t -> int
  (** Pulled-but-unemitted gates — the stream's working-set size. *)
end
