(** The placer's candidate scoring kernel: the makespan of a candidate
    placement from the current physical clocks (its connecting SWAP stage,
    then the compiled subcircuit), the routing-free swap-displacement
    bound, and the depth-2 lookahead's completions of the next stage
    (DESIGN §6, §9).

    Each domain scores in its own {!lane}: a timing scratch plus the
    buffers a completion, its connecting permutation and its displacement
    lift are built in, with stamp arrays instead of clears.  A completion
    that hits the route table allocates nothing. *)

val swap_lift :
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_graph.Graph.t ->
  start:float array ->
  int ->
  int ->
  float
(** [swap_lift options env adjacency ~start src dst] is the clock the
    routing-free prebound lifts vertex [dst] to when the token at [src]
    must reach [dst] ([neg_infinity] when [src = dst]): [start.(src)] plus
    the cheapest SWAP path from [src] to [dst] over [adjacency], each edge
    priced at one capped SWAP at its cheaper orientation.  Admissible: no
    SWAP network on [adjacency], timed from [start] under [options]' model
    and reuse cap, finishes [dst] earlier (DESIGN §9).  Partially apply to
    the first three arguments to build the distance table once. *)

type t
(** One placement run's scoring context. *)

val create :
  ?reference:bool ->
  Options.t ->
  Qcp_env.Environment.t ->
  Qcp_graph.Graph.t ->
  n:int ->
  scored:Qcp_obs.Metrics.counter ->
  early_exits:Qcp_obs.Metrics.counter ->
  route:(Qcp_route.Perm.t -> Score_cache.route_entry) ->
  t
(** A context for placing [n] qubits into the environment over its
    adjacency graph.  [route] answers a connecting permutation (a scratch
    array: copy it to keep it).  [scored] counts every scored candidate
    and completion, [early_exits] every refuted one.  With [reference]
    (default false) every cutoff reads [infinity]. *)

val with_route : t -> (Qcp_route.Perm.t -> Score_cache.route_entry) -> t

val cutoff_of : t -> float -> float
(** The cutoff a bounded evaluation applies: [infinity] in a
    [reference] context, the given one otherwise. *)

val force : t -> unit
(** Build every lazily built distance table, before a parallel sweep:
    forcing a lazy value from two domains at once raises. *)

val advance :
  t -> Qcp_circuit.Timing.scratch -> cutoff:float -> int array ->
  Qcp_circuit.Timing.stage -> bool
(** {!Qcp_circuit.Timing.stage_advance} under the run's model, reuse cap
    and delays. *)

val advance_swaps :
  t -> Qcp_circuit.Timing.scratch -> cutoff:float -> int array -> bool
(** {!Qcp_circuit.Timing.stage_advance_swaps} likewise. *)

(** {1 Lanes} *)

type lane

val lane : t -> lane
(** This domain's lane, sized for the context. *)

val scratch : lane -> Qcp_circuit.Timing.scratch

val next : lane -> int array
(** The last {!complete}d placement (its first [n] cells; live). *)

val perm : lane -> int array
(** The last {!connect}ed permutation (live; only meaningful when it was
    not the identity). *)

val lifted : lane -> float
(** The largest lift of the last {!connect} (0 when nothing moved). *)

val mark_sources : t -> lane -> int array -> unit
(** Mark the vertices of the previous placement {!connect} reads. *)

val mark_targets : t -> lane -> int array -> unit
(** Mark the vertices of a placement {!connect} connects to (a
    {!complete}d one is marked already). *)

val complete : t -> lane -> previous:int array -> int array -> unit
(** [complete t lane ~previous mapping] extends a partial monomorphism
    (active qubits only, -1 elsewhere) to a full injective placement of
    every logical qubit into {!next}, marking its vertices.  Inactive
    qubits keep their [previous] vertex when it is free, then, in qubit
    order, fall to the nearest free vertex: smallest BFS distance from
    the previous vertex, unreachable last, then smallest index.
    Allocates nothing. *)

val connect :
  t -> lane -> previous:int array -> next:int array -> start:float array ->
  pos:int -> bool
(** The connecting permutation from [previous] to [next] (both marked)
    into {!perm}, by {!Qcp_route.Perm.of_placements}' rule: the token at
    [previous.(q)] goes to [next.(q)]; vertices holding no qubit stay
    fixed where possible and are matched in index order otherwise.
    Returns whether it is the identity.  In the same pass each displaced
    token's destination clock in the lane's scratch (loaded with the
    clocks [start] from [pos]) is raised to its swap-displacement
    arrival, and the largest lift is left in {!lifted}. *)

(** {1 Scores} *)

val score_makespan :
  ?cutoff:float ->
  ?prebound:bool ->
  t ->
  lane ->
  phys_start:float array ->
  prev:int array option ->
  stage:Qcp_circuit.Timing.stage ->
  int array ->
  float
(** The makespan of a candidate placement from [phys_start]: its
    connecting SWAP stage from [prev] (unless the identity), then [stage].
    Exact whenever it is [<= cutoff]; [infinity] (an early exit) when it
    provably exceeds it.  Under a finite cutoff with [prebound] (default)
    a candidate that must move tokens is first timed from the clocks its
    swap-displacement bound lifts, so it can be refuted before routing.
    On a finite result the lane's scratch holds the stage's finish
    clocks. *)

val candidate_bound :
  t ->
  lane ->
  phys_start:float array ->
  prev:int array option ->
  stage:Qcp_circuit.Timing.stage ->
  int array ->
  float
(** The routing-free admissible lower bound {!score_makespan}'s prebound
    tests, in full. *)

val deep_tail :
  t ->
  lane ->
  cutoff:float ->
  start:float array ->
  pos:int ->
  stage1:float ->
  placement:int array ->
  next_stage:Qcp_circuit.Timing.stage ->
  next_mappings:int array array ->
  float
(** The next-stage half of a depth-2 lookahead score: the best makespan
    over the completions of [next_mappings] after [placement] (each with
    its connecting swaps) from stage-1 finish clocks [start] at [pos]
    ([stage1], the stage-1 makespan, when there are none).  Each is timed
    under the running minimum capped by [cutoff]; exact whenever the
    result is [<= cutoff], [infinity] otherwise. *)
