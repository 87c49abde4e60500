(** Physical environments (paper Definition 1): a complete weighted graph
    over [m] nuclei.  Off-diagonal weights are the delays of a weight-1
    (90-degree) two-qubit interaction between two nuclei; diagonal weights
    are the delays of a weight-1 single-qubit pulse.  Delays are measured in
    the paper's unit of 1/10000 second; [Float.infinity] marks interactions
    that are unusable outright.

    The *Threshold* preprocessing step (paper Section 5, "Preprocessing")
    turns an environment into an adjacency graph of fast interactions. *)

type t

val make :
  ?t2:float array ->
  name:string ->
  nuclei:string array ->
  delay:float array array ->
  unit ->
  t
(** [delay] must be square of the nuclei count, symmetric, with non-negative
    entries; [t2] gives per-nucleus decoherence times in the same delay
    units (default: no decoherence).  Raises [Invalid_argument] otherwise. *)

val of_couplings :
  ?t2:float array ->
  name:string ->
  nuclei:string array ->
  single:float array ->
  couplings:(int * int * float) list ->
  ?default:float ->
  unit ->
  t
(** Convenience builder: unspecified off-diagonal pairs get [default]
    (defaults to [Float.infinity]). *)

val name : t -> string

val size : t -> int
(** Number of nuclei [m]. *)

val nucleus : t -> int -> string

val nucleus_index : t -> string -> int option

val single_delay : t -> int -> float

val t2 : t -> int -> float
(** Decoherence time of a nucleus (paper Section 1 notes decoherence around
    one second while bad couplings run below 0.2 Hz — the very reason
    placement matters); [Float.infinity] when unset. *)

val with_t2 : t -> float array -> t
(** Replace the decoherence times. *)

val coupling_delay : t -> int -> int -> float
(** Symmetric; [coupling_delay t v v] equals [single_delay t v]. *)

val weights : t -> Qcp_circuit.Timing.weights
(** The delay matrix itself, for the timing model (single-qubit delays on
    the diagonal); shared, not copied, so callers must not write it. *)

val adjacency : t -> threshold:float -> Qcp_graph.Graph.t
(** Graph with an edge for every pair of distinct nuclei whose coupling
    delay is strictly below [threshold] (paper: "below the Threshold ...
    fast"). *)

val connected_adjacency : t -> threshold:float -> Qcp_graph.Graph.t option
(** [None] when the threshold admits no interaction at all (the paper's
    "N/A" rows).  Otherwise the threshold adjacency, made connected: if the
    fast-interaction graph is disconnected, the cheapest available couplings
    joining its components are added (Kruskal on the full delay matrix).
    This is a documented fallback — the paper also reports results in the
    too-small-threshold regime, flagging disconnection as an indication that
    the threshold is too low; the extra edges carry their true (slow) delays
    in the timing model.

    Memoized per threshold (the eight most recent): repeated calls return
    the same physical graph, and so does a new threshold whose graph has
    the same edges as one this environment already holds (histidine at 50
    and 100, say), so per-graph derived structure (the bisection router's
    subset memo, the cross-run route tables) stays warm across placement
    runs and thresholds over one environment.  Graphs are never shared
    between environments, even equal ones: the weighted router's routes
    depend on the delays too. *)

val min_threshold_connected : t -> float
(** The smallest threshold whose adjacency graph is connected (paper: "the
    minimal value such that the graph associated with fastest interactions
    is connected") — computed as the longest edge of a minimum spanning
    tree, plus an epsilon. *)

val search_space : t -> qubits:int -> Qcp_util.Bigdec.t
(** [m!/(m-n)!], the count of injective placements (paper Table 2). *)

val to_dot : ?threshold:float -> t -> string
(** DOT rendering of the (thresholded) interaction graph with delay labels
    (paper Figure 1(b)). *)

val pp : Format.formatter -> t -> unit

(** {1 Generators} *)

val chain : ?name:string -> ?single:float -> ?coupling:float -> int -> t
(** Linear nearest-neighbor architecture (paper Section 6, performance test):
    neighbors couple with [coupling] (default 10.0 = 0.001 s per 90-degree
    interaction, the "1 kHz quantum processor"); other pairs are unusable.
    [single] defaults to 1.0. *)

val grid : ?name:string -> ?single:float -> ?coupling:float -> int -> int -> t
(** 2D lattice environment. *)

val heavy_hex : ?name:string -> ?single:float -> ?coupling:float -> int -> int -> t
(** [heavy_hex rows cols]: heavy-hex lattice environment
    ({!Qcp_graph.Generators.heavy_hex}) — sparse large-device topology. *)

val complete_uniform : ?name:string -> ?single:float -> ?coupling:float -> int -> t
(** All-to-all environment (the idealized abstract machine). *)

val of_graph :
  ?name:string -> ?single:float -> ?coupling:float -> Qcp_graph.Graph.t -> t
(** Environment whose fast interactions are the edges of a given graph. *)
