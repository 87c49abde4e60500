module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths
module Monomorph = Qcp_graph.Monomorph
module Coarsen = Qcp_graph.Coarsen
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Timing = Qcp_circuit.Timing
module Environment = Qcp_env.Environment
module Perm = Qcp_route.Perm
module Swap_network = Qcp_route.Swap_network

type stage =
  | Compute of { placement : int array; circuit : Circuit.t }
  | Permute of Swap_network.t

module Spill = struct
  type event =
    | Stage of {
        index : int;
        placement : int array;
        circuit : Circuit.t;
        makespan : float;
      }
    | Network of { index : int; network : Swap_network.t }

  type sink = { emit : event -> unit; close : unit -> unit }

  let callback f = { emit = f; close = (fun () -> ()) }
  let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

  (* One JSON object per line, appended in stage order; the file is the
     placement, so a consumer can replay it without ever holding more than
     one line.  Placements are physical-vertex indices. *)
  let file path =
    let oc = open_out path in
    let emit = function
      | Stage { index; placement; circuit; makespan } ->
        Printf.fprintf oc
          "{\"stage\": %d, \"kind\": \"compute\", \"gates\": %d, \
           \"makespan\": %.6f, \"placement\": [%s]}\n"
          index
          (Circuit.gate_count circuit)
          makespan
          (String.concat ", "
             (Array.to_list (Array.map string_of_int placement)))
      | Network { index; network } ->
        Printf.fprintf oc
          "{\"stage\": %d, \"kind\": \"permute\", \"depth\": %d, \"swaps\": \
           %d}\n"
          index
          (Swap_network.depth network)
          (Swap_network.swap_count network)
    in
    { emit; close = (fun () -> close_out oc) }
end

type summary = {
  sm_computes : int;
  sm_networks : int;
  sm_swap_depth : int;
  sm_swap_count : int;
  sm_makespan : float;
  sm_first : int array option;
  sm_last : int array option;
}

type stats = {
  oracle_calls : int;
  enumerations : int;
  candidates_scored : int;
  candidates_pruned : int;
  lower_bound_skips : int;
  timing_early_exits : int;
  networks_routed : int;
  route_cache_hits : int;
  route_cache_misses : int;
  scoring_seconds : float;
}

type program = {
  env : Environment.t;
  source : Circuit.t;
  options : Options.t;
  adjacency : Graph.t;
  stages : stage list;
  spilled : summary option;
  stats : stats;
  metrics : Qcp_obs.Metrics.snapshot;
}

type outcome = Placed of program | Unplaceable of string

let units_per_second = 10000.0

module Telemetry = Qcp_obs.Metrics

(* Wall seconds per pipeline phase, accumulated by sequential orchestration
   code only.  {!balance_boundaries} gives its trial pipelines a fresh
   record so trial phases don't double-count against the real ones. *)
type phase_times = {
  ph_split : float ref;
  ph_enumerate : float ref;
  ph_greedy : float ref;
  ph_lookahead : float ref;
  ph_fine_tune : float ref;
  ph_route : float ref;
  ph_balance : float ref;
}

let make_phase_times () =
  {
    ph_split = ref 0.0;
    ph_enumerate = ref 0.0;
    ph_greedy = ref 0.0;
    ph_lookahead = ref 0.0;
    ph_fine_tune = ref 0.0;
    ph_route = ref 0.0;
    ph_balance = ref 0.0;
  }

(* The cost of moving a token along the adjacency graph by SWAPs, for the
   routing-free swap-displacement bound (DESIGN §9).  Edge [(u, v)] costs
   one capped SWAP at its cheaper orientation,
   [min (delay u v) (delay v u) *. min reuse_cap 3]: every maximal same-pair
   swap run costs at least that while moving a token at most one edge, so
   a token displaced from [src] to [dst] cannot reach [dst] before
   [start.(src)] plus the cheapest such path. *)
type swap_metric =
  | Uniform of float
      (* Every adjacency edge costs this step (grids, chains, heavy-hex):
         the distance is exactly hops times the step, read off the BFS
         table, so no second m x m table is built. *)
  | Weighted of float array array Lazy.t
      (* All-pairs weighted shortest paths ({!Paths.all_pairs_weighted}),
         built on first use. *)

let swap_metric options env adjacency =
  let weights = Environment.weights env in
  let capped_swap =
    match options.Options.reuse_cap with
    | None -> 3.0
    | Some cap -> Float.min cap 3.0
  in
  let cost u v =
    Float.min (weights.Timing.coupled u v) (weights.Timing.coupled v u)
    *. capped_swap
  in
  let cheapest, dearest =
    List.fold_left
      (fun (lo, hi) (u, v) ->
        let c = cost u v in
        (Float.min lo c, Float.max hi c))
      (infinity, 0.0) (Graph.edges adjacency)
  in
  if dearest <= cheapest then Uniform cheapest
  else Weighted (lazy (Paths.all_pairs_weighted ~cost adjacency))

(* [swap_arrival metric dist start src dst] is the clock a token displaced
   from [src] to [dst <> src] lifts [dst] to ([neg_infinity]: no lift),
   forcing the distance table [metric] reads ([dist] is the BFS one).  A
   weighted distance is a float sum in Dijkstra's order while the swap
   stage sums its delays gate by gate, so a weighted lift is shaded down by
   2^-40 of itself -- far above any rounding gap, far below any delay -- so
   that rounding never puts it above a clock the swap stage really
   reaches.  Inlined, so the scoring loop boxes no float. *)
let[@inline] swap_arrival metric dist start src dst =
  match metric with
  | Uniform step ->
    let d = (Lazy.force dist).(src).(dst) in
    if d > 0 then start.(src) +. (float_of_int d *. step) else neg_infinity
  | Weighted table ->
    let t = start.(src) +. (Lazy.force table).(src).(dst) in
    t -. (t *. 0x1p-40)

let bfs_table adjacency =
  Array.init (Graph.n adjacency) (fun v -> Paths.bfs_dist adjacency v)

let swap_lift options env adjacency =
  let metric = swap_metric options env adjacency in
  let dist = lazy (bfs_table adjacency) in
  fun ~start src dst ->
    if src = dst then neg_infinity else swap_arrival metric dist start src dst

(* Internal context shared by the pipeline.  Search counters live in a
   per-run {!Qcp_obs.Metrics} registry (each handle is one atomic cell, so
   parallel candidate evaluation shares them exactly like the plain atomics
   they replaced); the remaining refs are only touched by sequential
   orchestration code.  Per-run registries keep concurrent {!place_batch}
   jobs from contaminating each other's {!stats}; every run's registry is
   merged into {!Qcp_obs.Metrics.global} when the run finishes while
   telemetry is armed. *)
type ctx = {
  c_env : Environment.t;
  c_adjacency : Graph.t;
  c_options : Options.t;
  c_weights : Timing.weights;
  c_m : int; (* environment size *)
  c_n : int; (* circuit qubits *)
  c_metrics : Telemetry.t;
  c_oracle : Workspace.counters; (* threaded into {!Workspace.fold_windowed} *)
  c_enumerations : Telemetry.counter;
  c_scored : Telemetry.counter;
  c_pruned : Telemetry.counter;
  c_bound_skips : Telemetry.counter;
  c_early_exits : Telemetry.counter;
  c_routed : Telemetry.counter;
  c_phases : phase_times;
  c_cache : Score_cache.t;
      (* Over the cross-run table for this run's graph and router; a
         private copy, trimmed after every stage, for spill runs
         ({!run_stages}); uncached for {!place_reference}. *)
  c_router :
    Qcp_route.Bisect_router.memo option -> Perm.t -> Swap_network.flat;
      (* The run's router, chosen once in {!run}. *)
  c_scratch : Timing.scratch; (* main-domain scoring buffers *)
  c_scoring_time : float ref; (* wall seconds spent scoring candidates *)
  c_dist : int array array Lazy.t;
      (* All-pairs BFS distances over the adjacency graph. *)
  c_swap : swap_metric;
      (* SWAP distances for the swap-displacement lower bound. *)
  c_hier : Coarsen.t option Lazy.t;
      (* Coarsening hierarchy of the adjacency graph for the
         coarsen-place-refine path; [None] when [Options.coarsen] is off,
         the environment is below the hierarchy cutoff, or matching made
         no progress.  Lazy so classic runs never pay for it. *)
  c_deadline : float;
      (* Absolute {!Qcp_util.Clock} instant after which the pipeline
         aborts between stages ([infinity]: never, and no clock reads). *)
  c_reference : bool;
      (* Set for {!place_reference}: every cutoff is read as [infinity]
         ({!cutoff_of}), so no sweep prunes, skips or exits early and each
         argmin scores every candidate in full. *)
}

(* The cutoff a bounded evaluation actually applies: [infinity] in the
   exhaustive reference run. *)
let cutoff_of ctx cutoff = if ctx.c_reference then infinity else cutoff

(* The "per-run" registry is cached per domain and zeroed at the start of
   every [place]: registry construction and handle interning cost more
   than a micro placement's whole pipeline, while a reset is ~ten atomic
   stores.  Safe because [place] runs to completion on its calling domain
   and never re-enters — concurrent [place_batch] jobs run whole jobs on
   distinct pool participants, and nested parallel regions serialize
   inline rather than migrating work mid-run. *)
type run_metrics = {
  rm_registry : Telemetry.t;
  rm_enumerations : Telemetry.counter;
  rm_scored : Telemetry.counter;
  rm_pruned : Telemetry.counter;
  rm_bound_skips : Telemetry.counter;
  rm_early_exits : Telemetry.counter;
  rm_routed : Telemetry.counter;
}

let run_metrics_key =
  Domain.DLS.new_key (fun () ->
      let t = Telemetry.create () in
      {
        rm_registry = t;
        rm_enumerations = Telemetry.counter t "placer.enumerations";
        rm_scored = Telemetry.counter t "placer.candidates_scored";
        rm_pruned = Telemetry.counter t "placer.candidates_pruned";
        rm_bound_skips = Telemetry.counter t "placer.lower_bound_skips";
        rm_early_exits = Telemetry.counter t "placer.timing_early_exits";
        rm_routed = Telemetry.counter t "placer.networks_routed";
      })

(* Accumulate the wall time of a candidate-scoring section. *)
let timed ctx f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  ctx.c_scoring_time := !(ctx.c_scoring_time) +. (Unix.gettimeofday () -. t0);
  result

(* The phase clocks only tick while metrics or tracing are armed: with
   telemetry fully off the cost is two atomic loads and a branch — the
   clock reads would otherwise dominate micro placements. *)
let phases_armed () = Telemetry.enabled () || Qcp_obs.Trace.enabled ()

(* Run one pipeline phase: a trace span when recording, wall time into
   its accumulator when {!phases_armed}.  Only sequential orchestration
   code runs phases, so the plain ref is safe. *)
let in_phase cell ~name f =
  if phases_armed () then begin
    let t0 = Unix.gettimeofday () in
    let result = Qcp_obs.Trace.with_span ~cat:"placer" name f in
    cell := !cell +. (Unix.gettimeofday () -. t0);
    result
  end
  else f ()

let route_network ctx perm =
  Telemetry.incr ctx.c_routed;
  Score_cache.route ctx.c_cache ~route:ctx.c_router perm

(* The run's router and the registry key its routes are shared under.
   Odd-even off a chain is exactly the unweighted bisection, so it routes
   and shares as one.  Every router answers with a flat schedule. *)
let router_of options env adjacency =
  let leaf_override = options.Options.leaf_override in
  let bisect ?edge_cost memo perm =
    Qcp_route.Bisect_router.route_flat ~leaf_override ?edge_cost ?memo
      adjacency ~perm
  in
  match options.Options.router with
  | Options.Bisect -> (Options.Bisect, fun memo -> bisect memo)
  | Options.Bisect_weighted ->
    ( Options.Bisect_weighted,
      bisect ~edge_cost:(fun u v -> Environment.coupling_delay env u v) )
  | Options.Token ->
    ( Options.Token,
      fun _ perm ->
        Swap_network.flatten (Qcp_route.Token_router.route adjacency ~perm) )
  | Options.Odd_even -> (
    match Qcp_route.Oes_router.path_order adjacency with
    | Some _ ->
      ( Options.Odd_even,
        fun _ perm ->
          Swap_network.flatten (Qcp_route.Oes_router.route adjacency ~perm) )
    | None -> (Options.Bisect, fun memo -> bisect memo))

(* Load a partial monomorphism (active qubits only) into [placement],
   marking its vertices in [taken]; every other qubit reads -1. *)
let place_active ctx ~placement ~taken mapping =
  Array.fill placement 0 ctx.c_n (-1);
  Array.fill taken 0 ctx.c_m false;
  for q = 0 to Array.length mapping - 1 do
    let v = mapping.(q) in
    if v >= 0 then begin
      placement.(q) <- v;
      taken.(v) <- true
    end
  done

(* Extend a partial monomorphism to a full injective placement of every
   logical qubit, given the previous stage's placement, into [placement]
   ([taken] is scratch of environment size): inactive qubits keep their
   previous vertex when it is free, then, in qubit order, fall to the
   nearest free vertex.  Allocates nothing. *)
let complete_after ctx ~previous ~placement ~taken mapping =
  place_active ctx ~placement ~taken mapping;
  (* Previous vertices are distinct, so no inactive qubit can take another
     one's: the order of this pass does not matter. *)
  for q = 0 to ctx.c_n - 1 do
    if placement.(q) < 0 && not taken.(previous.(q)) then begin
      placement.(q) <- previous.(q);
      taken.(previous.(q)) <- true
    end
  done;
  (* Displaced inactive qubits move to the nearest free vertex. *)
  let dist_table = Lazy.force ctx.c_dist in
  for q = 0 to ctx.c_n - 1 do
    if placement.(q) < 0 then begin
      let dist = dist_table.(previous.(q)) in
      let best = ref (-1) in
      for v = 0 to ctx.c_m - 1 do
        if not taken.(v) then
          match !best with
          | -1 -> best := v
          | b ->
            let dv = if dist.(v) < 0 then max_int else dist.(v) in
            let db = if dist.(b) < 0 then max_int else dist.(b) in
            if dv < db then best := v
      done;
      assert (!best >= 0);
      placement.(q) <- !best;
      taken.(!best) <- true
    end
  done

(* {!complete_after} into fresh arrays; in the first stage qubits with the
   heaviest single-qubit workload get the fastest nuclei. *)
let complete_placement ctx ~prev ~subcircuit mapping =
  let placement = Array.make ctx.c_n (-1) in
  let taken = Array.make ctx.c_m false in
  (match prev with
  | Some previous -> complete_after ctx ~previous ~placement ~taken mapping
  | None ->
    place_active ctx ~placement ~taken mapping;
    let inactive =
      List.filter (fun q -> placement.(q) < 0) (Qcp_util.Listx.range ctx.c_n)
    in
    let workload = Array.make ctx.c_n 0.0 in
    List.iter
      (fun gate ->
        match Gate.qubits gate with
        | [ q ] -> workload.(q) <- workload.(q) +. Gate.duration gate
        | _ -> ())
      (Circuit.gates subcircuit);
    let by_workload =
      List.sort (fun a b -> Float.compare workload.(b) workload.(a)) inactive
    in
    let free =
      List.filter (fun v -> not taken.(v)) (Qcp_util.Listx.range ctx.c_m)
      |> List.sort (fun a b ->
             Float.compare
               (Environment.single_delay ctx.c_env a)
               (Environment.single_delay ctx.c_env b))
    in
    List.iter2
      (fun q v ->
        placement.(q) <- v;
        taken.(v) <- true)
      by_workload
      (Qcp_util.Listx.take (List.length by_workload) free));
  placement

(* The connecting SWAP stage for a candidate, via the route cache. *)
let connecting_stage ctx ~prev placement =
  match prev with
  | None -> None
  | Some previous ->
    let perm =
      Perm.of_placements ~size:ctx.c_m ~before:previous ~after:placement
    in
    if Perm.is_identity perm then None else Some (route_network ctx perm)

(* A connecting stage's list network, for the stages a program keeps. *)
let connecting_network ctx ~prev placement =
  Option.map Swap_network.of_flat (connecting_stage ctx ~prev placement)

(* The swap-displacement lift shared by {!score_makespan}'s prebound and
   {!candidate_bound}: raise each displaced token's destination clock in
   [scratch] (already loaded with [phys_start]) to its {!swap_arrival}
   and return the largest lift (0 when nothing moves). *)
let lift_displaced ctx scratch ~phys_start perm =
  let lifted = ref 0.0 in
  for src = 0 to Array.length perm - 1 do
    let dst = perm.(src) in
    if src <> dst then begin
      let t = swap_arrival ctx.c_swap ctx.c_dist phys_start src dst in
      Timing.stage_lift scratch dst t;
      if t > !lifted then lifted := t
    end
  done;
  !lifted

(* Per-domain connecting-permutation and completion buffers: the scoring
   loops build each candidate's permutation, and each lookahead completion,
   in place.  A domain runs one sweep slot at a time and a slot finishes
   with a buffer before it is refilled. *)
let perm_builder = Domain.DLS.new_key Perm.builder

type completion = { mutable c_placement : int array; mutable c_taken : bool array }

let completion_key =
  Domain.DLS.new_key (fun () -> { c_placement = [||]; c_taken = [||] })

let connecting_perm ctx ~previous placement =
  Perm.of_placements_into (Domain.DLS.get perm_builder) ~size:ctx.c_m
    ~before:previous ~after:placement

(* Score one candidate placement from the current physical clock: optional
   connecting SWAP stage, then the subcircuit.  Returns the network, the
   updated clock and the makespan. *)
let score_candidate ctx ~phys_start ~prev ~subcircuit placement =
  Telemetry.incr ctx.c_scored;
  let model = ctx.c_options.Options.model in
  let reuse_cap = ctx.c_options.Options.reuse_cap in
  let entry = connecting_stage ctx ~prev placement in
  let scratch = ctx.c_scratch in
  Timing.stage_start scratch phys_start;
  let completed =
    (match entry with
    | None -> true
    | Some entry ->
      Timing.stage_advance_swaps ~model ?reuse_cap ~weights:ctx.c_weights
        scratch entry.Swap_network.swaps)
    && Timing.stage_advance ~model ?reuse_cap ~weights:ctx.c_weights
         ~place:(fun q -> placement.(q))
         scratch subcircuit
  in
  assert completed;
  ( Option.map Swap_network.of_flat entry,
    Timing.stage_clocks scratch,
    Timing.stage_makespan scratch )

(* Same recurrence as {!score_candidate} restricted to the makespan, run
   through reusable clock buffers so the argmin sweeps allocate nothing per
   evaluation.  A finite [cutoff] is threaded into the timing sweeps,
   which abort -- returning [infinity] here -- as soon as any physical
   clock strictly exceeds it (sound because the ASAP clocks are monotone
   nondecreasing; see {!Timing.stage_advance}).

   When the candidate needs a (non-identity) connecting SWAP stage, a
   bounded evaluation first times the subcircuit *alone* under the cutoff,
   from the previous clocks lifted by the swap-displacement bound (each
   displaced token's destination clock rises to at least its start clock
   plus its SWAP distance, {!lift_displaced}) -- a routing-free admissible
   lower bound:
   the swap stage raises each start clock by at least the lift, and the
   recurrence is monotone in its start clocks, so the real score is at
   least this makespan.  An abort there refutes the candidate before the
   router ever runs; candidates at or below the cutoff are never refuted
   (their lifted clocks cannot exceed it), so the argmin tie-break is
   unaffected.  Callers that already compared that bound against the
   cutoff pass [~prebound:false] to skip the redundant sweep.  The result
   is exact whenever it is [<= cutoff]. *)
let score_makespan ?(cutoff = infinity) ?(prebound = true) ctx ~scratch
    ~phys_start ~prev ~subcircuit placement =
  Telemetry.incr ctx.c_scored;
  let model = ctx.c_options.Options.model in
  let reuse_cap = ctx.c_options.Options.reuse_cap in
  let place q = placement.(q) in
  let cutoff = cutoff_of ctx cutoff in
  let advance_subcircuit () =
    Timing.stage_advance ~model ?reuse_cap ~cutoff ~weights:ctx.c_weights
      ~place scratch subcircuit
  in
  let refute () =
    Telemetry.incr ctx.c_early_exits;
    infinity
  in
  let swap_free () =
    Timing.stage_start scratch phys_start;
    if advance_subcircuit () then Timing.stage_makespan scratch
    else refute ()
  in
  match prev with
  | None -> swap_free ()
  | Some previous ->
    let perm = connecting_perm ctx ~previous placement in
    if Perm.is_identity perm then swap_free ()
    else begin
      let prebound_refuted =
        cutoff < infinity && prebound
        && begin
             Timing.stage_start scratch phys_start;
             (* A lifted clock above the cutoff already refutes the
                candidate even if no gate ever touches that vertex. *)
             lift_displaced ctx scratch ~phys_start perm > cutoff
             || not (advance_subcircuit ())
           end
      in
      if prebound_refuted then refute ()
      else begin
        let entry = route_network ctx perm in
        Timing.stage_start scratch phys_start;
        if
          Timing.stage_advance_swaps ~model ?reuse_cap ~cutoff
            ~weights:ctx.c_weights scratch entry.Swap_network.swaps
          && advance_subcircuit ()
        then Timing.stage_makespan scratch
        else refute ()
      end
    end

(* The routing-free admissible lower bound of {!score_makespan}'s
   prebound, computed in full so it can order a lower-bound-first sweep:
   the previous clocks lifted by each displaced token's swap-displacement
   delay, advanced through the subcircuit alone. *)
let candidate_bound ctx ~scratch ~phys_start ~prev ~subcircuit placement =
  Timing.stage_start scratch phys_start;
  (match prev with
  | None -> ()
  | Some previous ->
    let perm = connecting_perm ctx ~previous placement in
    ignore (lift_displaced ctx scratch ~phys_start perm : float));
  let completed =
    Timing.stage_advance ~model:ctx.c_options.Options.model
      ?reuse_cap:ctx.c_options.Options.reuse_cap ~weights:ctx.c_weights
      ~place:(fun q -> placement.(q))
      scratch subcircuit
  in
  assert completed;
  Timing.stage_makespan scratch

(* One timing scratch per domain: pool helpers are persistent, so each
   lazily allocates a scratch on first sweep and reuses it for every
   subsequent placement.  A domain runs one sweep slot at a time and each
   slot's scratch use is self-contained, so sharing per-domain is safe. *)
let domain_scratch = Domain.DLS.new_key Timing.make_scratch

(* Evaluate [eval scratch i] for every slot, fanning the independent
   evaluations across [Options.jobs] domains of the shared
   {!Qcp_util.Task_pool}.  Each slot writes only its own cell, so the
   result array is schedule-independent up to the monotonicity argument in
   {!lower_bound_first}. *)
let sweep_scores ctx total eval =
  let jobs = Int.min ctx.c_options.Options.jobs total in
  let out = Array.make total infinity in
  if jobs <= 1 then
    for i = 0 to total - 1 do
      out.(i) <- eval ctx.c_scratch i
    done
  else begin
    (* Slots read the distance tables; forcing a lazy value from two
       domains at once raises [CamlinternalLazy.Undefined]. *)
    ignore (Lazy.force ctx.c_dist : int array array);
    (match ctx.c_swap with
    | Weighted table -> ignore (Lazy.force table : float array array)
    | Uniform _ -> ());
    Qcp_util.Task_pool.parallel_for
      (Qcp_util.Task_pool.get ())
      ~jobs
      ~body:(fun ~worker:_ i -> out.(i) <- eval (Domain.DLS.get domain_scratch) i)
      total
  end;
  out

(* The one candidate argmin, lower bound first.  [bounds.(i)] is an
   admissible lower bound on candidate [i]'s score.  Candidates are
   evaluated in ascending order of it (original index breaking ties); one
   whose bound already exceeds the incumbent (seeded with [cutoff]) is
   skipped outright, and survivors run [exact scratch ~cutoff i] under the
   incumbent as cutoff, which must return the exact score when it is at
   most that cutoff and [infinity] otherwise.  A skipped or aborted score
   is strictly above some incumbent value, every incumbent value is at
   least the true minimum, and every candidate tying the minimum is
   evaluated exactly (its bound and clocks never exceed the incumbent) --
   so the earliest-index argmin over the score array, the same tie-break
   as [Listx.min_by], is the exhaustive sweep's whatever the domain
   schedule.  Returns the winner's index; when a finite [cutoff] prunes
   every candidate it is the arbitrary index 0. *)
let lower_bound_first ~cutoff ctx ~bounds ~exact =
  let total = Array.length bounds in
  let order = Array.init total Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare bounds.(a) bounds.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let scores = Array.make total infinity in
  let incumbent = Incumbent.make cutoff in
  let eval scratch k =
    let i = order.(k) in
    let limit = cutoff_of ctx (Incumbent.get incumbent) in
    let s =
      if bounds.(i) > limit then begin
        Telemetry.incr ctx.c_bound_skips;
        infinity
      end
      else exact scratch ~cutoff:limit i
    in
    if s = infinity then Telemetry.incr ctx.c_pruned
    else Incumbent.submit incumbent s;
    scores.(i) <- s;
    s
  in
  ignore (sweep_scores ctx total eval : float array);
  let best = ref 0 in
  Array.iteri (fun i s -> if s < scores.(!best) then best := i) scores;
  !best

(* ------------------------------------------------------------------ *)
(* Hierarchical coarsen-place-refine                                   *)
(* ------------------------------------------------------------------ *)

(* Environments below this size place fine on the full graph; a hierarchy
   would be all overhead. *)
let coarsen_min_env = 24

(* Above this many active qubits a stage's pattern approaches the region
   size, where enumeration degenerates toward Hamiltonian-path search; the
   splitter's witness embedding serves as the single candidate instead. *)
let scale_enum_max_active = 64

(* Node budget per kept first-vertex image of a region enumeration.  Below
   that cap a region can still hold a search of minutes (a 45-qubit stage
   on a 180-vertex region, every slot searched to exhaustion); a slot that
   runs out ends the list with what was found, and an empty list takes the
   witness fallback.  The largest slot any of the 128 vetted 16x16
   scale-grid circuits needs is 14,329 nodes, so none of them is cut. *)
let scale_slot_budget = 100_000

(* Power-of-two buckets for the scale histograms (window fill in gates,
   region size in vertices, refinement moves). *)
let scale_bounds =
  [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096.;
     8192.; 16384.; 32768.; 65536. |]

let observe_scale ctx name v =
  Telemetry.observe
    (Telemetry.histogram ~bounds:scale_bounds ctx.c_metrics name)
    v

(* Hill-climbing fine tuning (paper Section 5.1, "fine tuning"): move each
   interacting qubit to every vertex (swapping occupants when needed), keep
   changes that preserve fast-interaction alignment and reduce the stage
   makespan.  On the coarsen-place-refine path the probe set per qubit is
   its current vertex's adjacency neighborhood instead of all [m] vertices
   — local uncoarsening refinement, O(degree) instead of O(m) probes. *)
let fine_tune ctx ~phys_start ~prev ~subcircuit placement =
  let pattern = Score_cache.interaction_graph ctx.c_cache subcircuit in
  let pattern_edges = Graph.edges pattern in
  let active =
    List.filter (fun q -> Graph.degree pattern q > 0) (Qcp_util.Listx.range ctx.c_n)
  in
  let feasible candidate =
    List.for_all
      (fun (a, b) -> Graph.mem_edge ctx.c_adjacency candidate.(a) candidate.(b))
      pattern_edges
  in
  let score ?cutoff candidate =
    score_makespan ?cutoff ctx ~scratch:ctx.c_scratch ~phys_start ~prev
      ~subcircuit candidate
  in
  (* One scratch candidate array, refreshed by blit per probed move, and
     every move scored under the current best as cutoff: a losing move's
     timing sweep aborts early, and since acceptance needs a *strict*
     improvement the accepted moves -- hence the tuned placement -- are
     identical to the unbounded sweep. *)
  let current = Array.copy placement in
  let candidate = Array.make ctx.c_n 0 in
  let current_score = ref (score current) in
  let occupant_of = Array.make ctx.c_m (-1) in
  let refresh_occupants () =
    Array.fill occupant_of 0 ctx.c_m (-1);
    Array.iteri (fun q v -> occupant_of.(v) <- q) current
  in
  let local =
    ctx.c_options.Options.coarsen && Lazy.force ctx.c_hier <> None
  in
  let moves = ref 0 in
  let passes = ctx.c_options.Options.fine_tune_passes in
  let rec pass remaining =
    if remaining <= 0 then ()
    else begin
      let improved = ref false in
      let probe q v =
        if v <> current.(q) then begin
          Array.blit current 0 candidate 0 ctx.c_n;
          (match occupant_of.(v) with
          | -1 -> ()
          | q' -> candidate.(q') <- current.(q));
          candidate.(q) <- v;
          if feasible candidate then begin
            let s = score ~cutoff:!current_score candidate in
            if s < !current_score -. 1e-12 then begin
              Array.blit candidate 0 current 0 ctx.c_n;
              current_score := s;
              improved := true;
              incr moves;
              refresh_occupants ()
            end
          end
        end
      in
      List.iter
        (fun q ->
          refresh_occupants ();
          if local then
            Array.iter (probe q) (Graph.neighbors ctx.c_adjacency current.(q))
          else
            for v = 0 to ctx.c_m - 1 do
              probe q v
            done)
        active;
      if !improved then pass (remaining - 1)
    end
  in
  pass passes;
  if local then observe_scale ctx "placer.scale.refine_moves" (float_of_int !moves);
  current

let enumerate_mappings ctx ~subcircuit =
  Telemetry.incr ctx.c_enumerations;
  Score_cache.mappings ctx.c_cache subcircuit ~enumerate:(fun subcircuit ->
      let pattern = Score_cache.interaction_graph ctx.c_cache subcircuit in
      Monomorph.enumerate ~limit:ctx.c_options.Options.monomorphism_limit
        ~jobs:ctx.c_options.Options.jobs
        ?root_cap:ctx.c_options.Options.root_cap ~pattern
        ~target:ctx.c_adjacency ())

(* The splitter's witness embedding restricted to the stage's active
   qubits, validated against the stage pattern (defensive: a stale or
   foreign hint must never leak into scoring). *)
let witness_mapping ctx ~subcircuit hint =
  match hint with
  | Some w when Array.length w = ctx.c_n ->
    let pattern = Score_cache.interaction_graph ctx.c_cache subcircuit in
    let mapping =
      Array.init ctx.c_n (fun q ->
          if Graph.degree pattern q > 0 then w.(q) else -1)
    in
    if Monomorph.check ~pattern ~target:ctx.c_adjacency mapping then
      Some mapping
    else None
  | Some _ | None -> None

(* Region-restricted candidate generation: select a small connected
   environment region through the coarsening hierarchy — seeded at the
   previous stage's images of this stage's active qubits, else at the
   splitter witness — enumerate monomorphisms on the induced subgraph
   only, and translate results back to environment vertices.  [None] means
   "run the classic full-graph enumeration instead" (no hierarchy, no
   active pairs, region too large to help, or region and witness both
   refused), so this path can only ever narrow the search, never lose a
   placeable stage. *)
let scale_mappings ctx ~prev ~hint ~subcircuit =
  match Lazy.force ctx.c_hier with
  | None -> None
  | Some hier ->
    let pattern = Score_cache.interaction_graph ctx.c_cache subcircuit in
    let active =
      List.filter
        (fun q -> Graph.degree pattern q > 0)
        (Qcp_util.Listx.range ctx.c_n)
    in
    let nactive = List.length active in
    if nactive = 0 then None
    else if nactive > scale_enum_max_active then
      Option.map (fun m -> [ m ]) (witness_mapping ctx ~subcircuit hint)
    else begin
      let target_size = Int.max (4 * nactive) 16 in
      if target_size >= ctx.c_m then None
      else begin
        let images = function
          | None -> []
          | Some source ->
            List.filter_map
              (fun q -> if source.(q) >= 0 then Some source.(q) else None)
              active
        in
        let seeds =
          match images prev with [] -> images hint | seeds -> seeds
        in
        let region =
          Qcp_obs.Trace.with_span ~cat:"placer" "placer/coarse-region"
            (fun () -> Coarsen.select_region hier ~seeds ~capacity:target_size)
        in
        observe_scale ctx "placer.scale.region_size"
          (float_of_int (List.length region));
        Telemetry.incr ctx.c_enumerations;
        let sub, back = Graph.induced ctx.c_adjacency region in
        let mapped =
          Monomorph.enumerate ~limit:ctx.c_options.Options.monomorphism_limit
            ~jobs:ctx.c_options.Options.jobs
            ?root_cap:ctx.c_options.Options.root_cap
            ~slot_budget:scale_slot_budget ~pattern ~target:sub ()
          |> List.map
               (Array.map (fun v -> if v < 0 then -1 else back.(v)))
        in
        match mapped with
        | [] ->
          Option.map (fun m -> [ m ]) (witness_mapping ctx ~subcircuit hint)
        | _ -> Some mapped
      end
    end

let enumerate_candidates ?hint ctx ~prev ~subcircuit =
  let mappings =
    if ctx.c_options.Options.coarsen then
      match scale_mappings ctx ~prev ~hint ~subcircuit with
      | Some mappings -> mappings
      | None -> enumerate_mappings ctx ~subcircuit
    else enumerate_mappings ctx ~subcircuit
  in
  List.map (complete_placement ctx ~prev ~subcircuit) mappings

(* Best single-stage candidate by makespan, through {!lower_bound_first}.
   Picks return the winner and its stage finish clocks when the sweep
   already computed them exactly (so the pipeline can skip re-timing the
   winner; [None] means replay).  With a previous placement the
   bound is {!candidate_bound}, so a candidate is skipped before the router
   ever runs; the first stage routes nothing and has no bound cheaper than
   its score, so there every candidate evaluates under the incumbent. *)
let pick_greedy ~cutoff ctx ~phys_start ~prev ~subcircuit candidates =
  match candidates with
  | [] -> None
  | _ ->
    let arr = Array.of_list candidates in
    let total = Array.length arr in
    let bounds =
      match prev with
      | None -> Array.make total neg_infinity
      | Some _ ->
        sweep_scores ctx total (fun scratch i ->
            candidate_bound ctx ~scratch ~phys_start ~prev ~subcircuit arr.(i))
    in
    let clocks = Array.make total [||] in
    let best =
      lower_bound_first ~cutoff ctx ~bounds ~exact:(fun scratch ~cutoff i ->
          let s =
            score_makespan ~cutoff ~prebound:false ctx ~scratch ~phys_start
              ~prev ~subcircuit arr.(i)
          in
          (* A completed sweep leaves the exact finish clocks loaded
             (bit-identical to a fresh replay). *)
          if s < infinity then clocks.(i) <- Timing.stage_clocks scratch;
          s)
    in
    let finish =
      if Array.length clocks.(best) = 0 then None else Some clocks.(best)
    in
    Some (arr.(best), finish)

(* The next-stage half of a depth-2 lookahead score, starting from the
   current candidate's stage-1 [finish] clocks: the best completion of the
   next subcircuit (including its connecting swaps) over [next_mappings].
   Each completion is timed under the running inner minimum capped by
   [cutoff] -- an aborted completion is strictly worse than one of those,
   so the returned minimum is exact whenever it is [<= cutoff] and is
   reported as [infinity] (provably above [cutoff]) otherwise.  Each
   completion is built into this domain's buffer just before it is
   scored. *)
let deep_tail ctx ~scratch ~cutoff ~finish ~stage1 ~placement ~next_subcircuit
    ~next_mappings =
  if Array.length next_mappings = 0 then stage1
  else begin
    let buffers = Domain.DLS.get completion_key in
    if Array.length buffers.c_placement <> ctx.c_n then
      buffers.c_placement <- Array.make ctx.c_n (-1);
    if Array.length buffers.c_taken <> ctx.c_m then
      buffers.c_taken <- Array.make ctx.c_m false;
    let next_placement = buffers.c_placement in
    let prev = Some placement in
    let best = ref infinity in
    for i = 0 to Array.length next_mappings - 1 do
      complete_after ctx ~previous:placement ~placement:next_placement
        ~taken:buffers.c_taken next_mappings.(i);
      let s =
        score_makespan ~cutoff:(Float.min !best cutoff) ctx ~scratch
          ~phys_start:finish ~prev ~subcircuit:next_subcircuit next_placement
      in
      if s < !best then best := s
    done;
    !best
  end

(* Depth-2 lookahead score (paper Section 5.3): the best achievable makespan
   after also placing the *next* subcircuit with its own connecting swaps.
   The next stage's raw monomorphisms are independent of the current
   candidate (the paper's "the sets M_{i,j} for different values i are
   equal" remark), so they are enumerated once and passed in; only their
   completion over inactive qubits depends on the current placement.
   Exact whenever the result is [<= cutoff]; [infinity] otherwise. *)
let deep_score ?(cutoff = infinity) ctx ~scratch ~phys_start ~prev ~subcircuit
    ~next_subcircuit ~next_mappings placement =
  let stage1 =
    score_makespan ~cutoff ctx ~scratch ~phys_start ~prev ~subcircuit placement
  in
  if stage1 = infinity then infinity
  else
    let finish = Timing.stage_clocks scratch in
    deep_tail ctx ~scratch ~cutoff ~finish ~stage1 ~placement ~next_subcircuit
      ~next_mappings

(* Depth-2 lookahead selection through {!lower_bound_first}: the clocks
   are monotone, so a candidate's stage-1 makespan is an admissible lower
   bound on its two-stage score.  Stage-1 makespans are computed exactly
   for every candidate first (they also yield the stage-1 finish clocks,
   reused by the next-stage completions and returned for the winner), and
   survivors' completions run under the incumbent as cutoff. *)
let pick_lookahead ~cutoff ctx ~phys_start ~prev ~subcircuit ~next_subcircuit
    ~next_mappings candidates =
  match candidates with
  | [] -> None
  | _ ->
    let arr = Array.of_list candidates in
    let total = Array.length arr in
    let clocks = Array.make total [||] in
    let bounds =
      sweep_scores ctx total (fun scratch i ->
          let b =
            score_makespan ctx ~scratch ~phys_start ~prev ~subcircuit arr.(i)
          in
          clocks.(i) <- Timing.stage_clocks scratch;
          b)
    in
    let best =
      lower_bound_first ~cutoff ctx ~bounds ~exact:(fun scratch ~cutoff i ->
          deep_tail ctx ~scratch ~cutoff ~finish:clocks.(i) ~stage1:bounds.(i)
            ~placement:arr.(i) ~next_subcircuit ~next_mappings)
    in
    Some (arr.(best), Some clocks.(best))

(* Exported so the serving layer can tell a deadline abort (a "timeout")
   from an unplaceable instance by exact match. *)
let msg_deadline = "deadline expired before the pipeline completed"

exception Pipeline_failure of string

(* One pipeline stage, called only from the stage loop {!run_stages}:
   enumerate candidates, pick (greedy, or depth-2 lookahead when a
   successor stage is in hand), fine-tune under the lookahead judge,
   route/re-time, and apply the cutoff / deadline abort protocol.  Returns
   the connecting network (already filtered: [None] when empty or first
   stage), the chosen placement and the stage's finish clocks; raises
   {!Pipeline_failure} on any abort.

   A finite [cutoff] (used by the boundary-refinement trials) seeds the
   stage's incumbent and aborts as soon as the running makespan provably
   exceeds it: clocks are monotone across stages, so a stage makespan
   above the cutoff refutes the final one. *)
let place_one ?(cutoff = infinity) ctx ~phys_start ~prev ~hint ~subcircuit
    ~next_subcircuit =
  if Qcp_util.Clock.expired ctx.c_deadline then
    raise (Pipeline_failure msg_deadline);
  let options = ctx.c_options in
  let candidates =
    in_phase ctx.c_phases.ph_enumerate ~name:"placer/enumerate" (fun () ->
        enumerate_candidates ?hint ctx ~prev ~subcircuit)
  in
  let next_mappings =
    match next_subcircuit with
    | Some next when options.Options.lookahead ->
      Some
        ( next,
          in_phase ctx.c_phases.ph_enumerate ~name:"placer/enumerate"
            (fun () -> Array.of_list (enumerate_mappings ctx ~subcircuit:next)) )
    | Some _ | None -> None
  in
  let chosen =
    timed ctx (fun () ->
        match next_mappings with
        | Some (next_subcircuit, next_mappings) ->
          in_phase ctx.c_phases.ph_lookahead ~name:"placer/lookahead"
            (fun () ->
              pick_lookahead ~cutoff ctx ~phys_start ~prev ~subcircuit
                ~next_subcircuit ~next_mappings candidates)
        | None ->
          in_phase ctx.c_phases.ph_greedy ~name:"placer/greedy" (fun () ->
              pick_greedy ~cutoff ctx ~phys_start ~prev ~subcircuit candidates))
  in
  match chosen with
  | None ->
    raise (Pipeline_failure "no monomorphism found for an alignable subcircuit")
  | Some (placement, picked_finish) ->
    (* Fine tuning optimizes the current stage only; under lookahead,
       keep it only if it does not undo the two-stage choice.  The
       baseline is judged exactly, then bounds the challenger: ties
       keep the tuned candidate, and an aborted challenger is strictly
       worse, so the decision matches the unbounded comparison. *)
    let tune () =
      let candidate = fine_tune ctx ~phys_start ~prev ~subcircuit placement in
      match next_mappings with
      | Some (next_subcircuit, next_mappings) when candidate <> placement ->
        let judge ?cutoff p =
          deep_score ?cutoff ctx ~scratch:ctx.c_scratch ~phys_start ~prev
            ~subcircuit ~next_subcircuit ~next_mappings p
        in
        let baseline = judge placement in
        if judge ~cutoff:baseline candidate <= baseline then candidate
        else placement
      | Some _ | None -> candidate
    in
    let tuned =
      timed ctx (fun () ->
          if options.Options.fine_tune_passes > 0 then
            in_phase ctx.c_phases.ph_fine_tune ~name:"placer/fine-tune" tune
          else placement)
    in
    let network, finish, makespan =
      timed ctx (fun () ->
          in_phase ctx.c_phases.ph_route ~name:"placer/route" (fun () ->
              match picked_finish with
              | Some finish when tuned = placement ->
                (* The pick already timed this exact placement: the
                   saved clocks are bit-identical to a fresh replay, so
                   only the connecting network is fetched (a
                   route-cache hit). *)
                ( connecting_network ctx ~prev tuned,
                  finish,
                  Array.fold_left Float.max 0.0 finish )
              | _ -> score_candidate ctx ~phys_start ~prev ~subcircuit tuned))
    in
    if makespan > cutoff_of ctx cutoff then
      raise (Pipeline_failure "makespan exceeds the evaluation cutoff");
    let network =
      match network with Some net when net <> [] -> Some net | _ -> None
    in
    (network, tuned, finish)

(* The stage loop, the one place {!place_one} is called from.  [feed]
   hands each (subcircuit, witness hint) to its argument in stage order
   and returns the split's verdict; each stage leaves through [sink] the
   moment it is placed, so the only per-stage state live here is a
   one-stage lag buffer — depth-2 lookahead needs the successor
   subcircuit, so stage [i] is placed when stage [i+1] arrives, and the
   final stage is placed lookahead-free.  Materialized runs feed their
   split list and rebuild [stages] through {!collect}; spill runs feed
   {!Workspace.fold_windowed} directly ({!stream_feed}).  Stage formation
   is deterministic and independent of placement, so both hand
   {!place_one} the same triples and place bit-identical stages.

   In spill mode peak heap is O(window + environment) beyond the input
   circuit and whatever the sink retains: the split's deferral window,
   the lag buffer, one candidate set, and the score cache (a private
   table, trimmed after every stage). *)
let run_stages ?cutoff ctx ~sink feed =
  let phys_start = ref (Array.make ctx.c_m 0.0) in
  let prev = ref None in
  let index = ref 0 in
  let computes = ref 0 in
  let networks = ref 0 in
  let swap_depth = ref 0 in
  let swap_count = ref 0 in
  let first = ref None in
  let pending = ref None in
  let flush ~next_subcircuit =
    match !pending with
    | None -> ()
    | Some (subcircuit, hint) ->
      let network, tuned, finish =
        place_one ?cutoff ctx ~phys_start:!phys_start ~prev:!prev ~hint
          ~subcircuit ~next_subcircuit
      in
      (match network with
      | Some net ->
        sink.Spill.emit (Spill.Network { index = !index; network = net });
        incr index;
        incr networks;
        swap_depth := !swap_depth + Swap_network.depth net;
        swap_count := !swap_count + Swap_network.swap_count net
      | None -> ());
      let makespan = Array.fold_left Float.max 0.0 finish in
      sink.Spill.emit
        (Spill.Stage { index = !index; placement = tuned; circuit = subcircuit;
                       makespan });
      incr index;
      incr computes;
      if !first = None then first := Some (Array.copy tuned);
      phys_start := finish;
      prev := Some tuned;
      pending := None;
      (* Connecting permutations are rarely shared across stages, so a
         spill run's private route table would otherwise be the one
         structure growing with gate count; trimming costs only
         recomputation, and leaves a cross-run table alone. *)
      Score_cache.trim ctx.c_cache
  in
  let outcome =
    Fun.protect ~finally:sink.Spill.close @@ fun () ->
    try
      Result.map
        (fun () -> flush ~next_subcircuit:None)
        (feed (fun ((subcircuit, _) as stage) ->
             flush ~next_subcircuit:(Some subcircuit);
             pending := Some stage))
    with Pipeline_failure msg -> Error msg
  in
  Result.map
    (fun () ->
      {
        sm_computes = !computes;
        sm_networks = !networks;
        sm_swap_depth = !swap_depth;
        sm_swap_count = !swap_count;
        sm_makespan = Array.fold_left Float.max 0.0 !phys_start;
        sm_first = !first;
        sm_last = !prev;
      })
    outcome

(* A stage feed over an already split list. *)
let feed_list stages stage =
  List.iter stage stages;
  Ok ()

(* The sink of a materialized run: rebuilds the stage list. *)
let collect () =
  let stages = ref [] in
  let sink =
    Spill.callback (function
      | Spill.Stage { placement; circuit; _ } ->
        stages := Compute { placement; circuit } :: !stages
      | Spill.Network { network; _ } -> stages := Permute network :: !stages)
  in
  (sink, fun () -> List.rev !stages)

(* The windowed splitter with the window-fill histogram recorded per
   stage. *)
let fold_stages ctx ~init ~stage circuit =
  Workspace.fold_windowed ~counters:ctx.c_oracle
    ~window:ctx.c_options.Options.window ~adjacency:ctx.c_adjacency ~init
    ~stage:(fun acc ((subcircuit, _) as s) ->
      observe_scale ctx "placer.scale.window_fill"
        (float_of_int (Circuit.gate_count subcircuit));
      stage acc s)
    circuit

(* The stage feed of a spill run: the splitter drives the loop directly.
   Splitting and placing interleave, so the split phase is charged the
   fold's wall time minus the time spent inside [stage]. *)
let stream_feed ctx circuit stage =
  let clock = if phases_armed () then Unix.gettimeofday else fun () -> 0.0 in
  let inside = ref 0.0 in
  let t0 = clock () in
  let result =
    fold_stages ctx ~init:()
      ~stage:(fun () s ->
        let t = clock () in
        stage s;
        inside := !inside +. (clock () -. t))
      circuit
  in
  let split = ctx.c_phases.ph_split in
  split := !split +. (clock () -. t0 -. !inside);
  result

(* Boundary refinement (paper "further research"): the greedy split makes
   each computation stage maximal; donating a few trailing gates to the next
   stage can shrink the following swap stage.  Trial donations are evaluated
   with a cheap greedy pass of the stage loop into {!Spill.null} -- run
   with the incumbent makespan as cutoff, so a losing donation aborts as
   soon as any stage provably exceeds it -- and kept when they strictly
   improve the makespan.  The subcircuit sequence is kept as an array so a
   donation is O(stages), not the O(stages^2) of repeated
   [List.nth_opt]/[List.mapi] bookkeeping. *)
let balance_boundaries ctx subcircuits =
  let cheap_ctx =
    {
      ctx with
      c_options =
        {
          ctx.c_options with
          Options.lookahead = false;
          fine_tune_passes = 0;
        };
      (* Trial pipelines keep their own phase clocks: their time is the
         balance phase's, not enumerate/greedy/route time of the real
         pipeline.  Search counters intentionally stay shared. *)
      c_phases = make_phase_times ();
    }
  in
  let evaluate ?cutoff subs =
    let stages = List.map (fun sub -> (sub, None)) (Array.to_list subs) in
    match run_stages ?cutoff cheap_ctx ~sink:Spill.null (feed_list stages) with
    | Ok summary -> summary.sm_makespan
    | Error _ -> Float.infinity
  in
  let donate subs boundary =
    (* Move the last gate of stage [boundary] to the head of the next. *)
    match List.rev (Circuit.gates subs.(boundary)) with
    | [] -> None
    | gate :: rest_rev ->
      let taker' =
        Circuit.make ~qubits:ctx.c_n
          (gate :: Circuit.gates subs.(boundary + 1))
      in
      if
        Monomorph.exists
          ~pattern:(Score_cache.interaction_graph ctx.c_cache taker')
          ~target:ctx.c_adjacency
      then begin
        let giver' = Circuit.make ~qubits:ctx.c_n (List.rev rest_rev) in
        let updated =
          if Circuit.gate_count giver' = 0 then begin
            (* The donor stage emptied out: drop it. *)
            let shrunk = Array.make (Array.length subs - 1) taker' in
            Array.blit subs 0 shrunk 0 boundary;
            Array.blit subs (boundary + 2) shrunk (boundary + 1)
              (Array.length subs - boundary - 2);
            shrunk
          end
          else begin
            let copy = Array.copy subs in
            copy.(boundary) <- giver';
            copy.(boundary + 1) <- taker';
            copy
          end
        in
        Some updated
      end
      else None
  in
  let max_donations_per_boundary = 3 in
  let rec refine subs score boundary budget =
    if boundary + 1 >= Array.length subs then subs
    else if budget = 0 then
      refine subs score (boundary + 1) max_donations_per_boundary
    else
      match donate subs boundary with
      | None -> refine subs score (boundary + 1) max_donations_per_boundary
      | Some candidate ->
        let candidate_score = evaluate ~cutoff:score candidate in
        if candidate_score < score -. 1e-9 then
          refine candidate candidate_score boundary (budget - 1)
        else refine subs score (boundary + 1) max_donations_per_boundary
  in
  let subs = Array.of_list subcircuits in
  Array.to_list (refine subs (evaluate subs) 0 max_donations_per_boundary)

(* LONGPATH-style V-cycle refinement over the committed stage list
   ([Options.vcycle] passes, opt-in): sweep the computation stages in
   order, probing single-qubit re-assignments restricted to the adjacency
   neighborhood of the qubit's current vertex — widened through a small
   {!Coarsen.select_region} neighborhood when the hierarchy is in hand —
   and commit a move only when the exact re-timed end-to-end makespan
   strictly improves.  The refined program therefore never regresses below
   the unrefined one, and with [vcycle = 0] this code never runs, keeping
   knobs-off output bit-identical.

   A move is judged in two steps.  The cheap local filter re-times only
   the two-stage window the move influences directly (the connecting
   network into the moved stage, the stage itself, and the following
   network + stage); only window-improving moves are promoted to the exact
   suffix re-time — sound regardless of what the filter passes, since the
   suffix re-time alone decides.  Clocks are monotone across stages, so
   the last stage's re-timed makespan {e is} the end-to-end makespan, and
   a move at stage [j] cannot change clocks before [j] — the prefix
   [f.(0..j)] stays valid across commits. *)
let vcycle_refine ctx stage_list =
  Qcp_obs.Trace.with_span ~cat:"placer" "placer/vcycle" @@ fun () ->
  let computes =
    Array.of_list
      (List.filter_map
         (function
           | Compute { placement; circuit } -> Some (placement, circuit)
           | Permute _ -> None)
         stage_list)
  in
  let k = Array.length computes in
  if k = 0 then stage_list
  else begin
    let p = Array.map (fun (pl, _) -> Array.copy pl) computes in
    let c = Array.map snd computes in
    let prev_of j = if j = 0 then None else Some p.(j - 1) in
    (* f.(j): physical clocks entering stage [j]'s connecting network. *)
    let f = Array.make (k + 1) (Array.make ctx.c_m 0.0) in
    let retime_from j0 =
      let total = ref 0.0 in
      for j = j0 to k - 1 do
        let _, finish, makespan =
          score_candidate ctx ~phys_start:f.(j) ~prev:(prev_of j)
            ~subcircuit:c.(j) p.(j)
        in
        f.(j + 1) <- finish;
        total := makespan
      done;
      !total
    in
    let initial = retime_from 0 in
    let total = ref initial in
    let moves = ref 0 in
    let passes = ref 0 in
    let eps = 1e-9 in
    let improved = ref true in
    while !improved && !passes < ctx.c_options.Options.vcycle do
      incr passes;
      improved := false;
      for j = 0 to k - 1 do
        let pattern = Score_cache.interaction_graph ctx.c_cache c.(j) in
        let occupied = Array.make ctx.c_m false in
        Array.iter (fun v -> occupied.(v) <- true) p.(j);
        let window_score placement =
          let _, fin, m1 =
            score_candidate ctx ~phys_start:f.(j) ~prev:(prev_of j)
              ~subcircuit:c.(j) placement
          in
          if j + 1 < k then
            let _, _, m2 =
              score_candidate ctx ~phys_start:fin ~prev:(Some placement)
                ~subcircuit:c.(j + 1)
                p.(j + 1)
            in
            m2
          else m1
        in
        let baseline = ref (window_score p.(j)) in
        for q = 0 to ctx.c_n - 1 do
          let partners = Graph.neighbors pattern q in
          if Array.length partners > 0 then begin
            let u = p.(j).(q) in
            let pool = Array.to_list (Graph.neighbors ctx.c_adjacency u) in
            let pool =
              match Lazy.force ctx.c_hier with
              | Some hier ->
                List.rev_append
                  (Coarsen.select_region hier ~seeds:[ u ] ~capacity:8)
                  pool
              | None -> pool
            in
            (* One committed move per qubit per stage per pass: [u], the
               probe pool and [occupied] all describe the pre-move
               placement, so further probes for this qubit would judge
               against stale state. *)
            let qdone = ref false in
            List.iter
              (fun v ->
                let feasible =
                  (not !qdone)
                  && (not occupied.(v))
                  && Array.for_all
                       (fun r -> Graph.mem_edge ctx.c_adjacency v p.(j).(r))
                       partners
                in
                if feasible then begin
                  let candidate = Array.copy p.(j) in
                  candidate.(q) <- v;
                  if window_score candidate < !baseline -. eps then begin
                    (* Promote: exact suffix re-time decides. *)
                    let old = p.(j) in
                    p.(j) <- candidate;
                    let t = retime_from j in
                    if t < !total -. eps then begin
                      total := t;
                      incr moves;
                      improved := true;
                      qdone := true;
                      occupied.(u) <- false;
                      occupied.(v) <- true;
                      baseline := window_score candidate
                    end
                    else begin
                      (* Restore the placement and the suffix clocks the
                         trial re-time overwrote. *)
                      p.(j) <- old;
                      ignore (retime_from j : float)
                    end
                  end
                end)
              (List.sort_uniq Int.compare pool)
          end
        done
      done
    done;
    observe_scale ctx "placer.scale.vcycle_moves" (float_of_int !moves);
    Telemetry.set
      (Telemetry.gauge ctx.c_metrics "placer.scale.vcycle_passes")
      (float_of_int !passes);
    Telemetry.set
      (Telemetry.gauge ctx.c_metrics "placer.scale.vcycle_gain")
      (initial -. !total);
    if !moves = 0 then stage_list
    else begin
      let stages = ref [] in
      for j = k - 1 downto 0 do
        stages := Compute { placement = p.(j); circuit = c.(j) } :: !stages;
        if j > 0 then
          match connecting_network ctx ~prev:(Some p.(j - 1)) p.(j) with
          | Some network when network <> [] ->
            stages := Permute network :: !stages
          | Some _ | None -> ()
      done;
      !stages
    end
  end

(* Stamp the derived instruments into the per-run registry, snapshot it,
   and merge it into the process-global registry so cross-run tooling
   ([--metrics], the serve daemon's stats) sees the accumulated totals.  The
   {!stats} record is the thin compatibility view over the same registry
   reads. *)
let finalize_metrics ctx =
  let t = ctx.c_metrics in
  let oracle = ctx.c_oracle in
  Telemetry.add (Telemetry.counter t "placer.oracle_calls") oracle.Workspace.calls;
  Telemetry.add (Telemetry.counter t "placer.oracle_nodes") oracle.Workspace.nodes;
  Telemetry.add
    (Telemetry.counter t "placer.oracle_exhausted")
    oracle.Workspace.exhausted;
  Telemetry.add
    (Telemetry.counter t "placer.route_cache.hits")
    (Score_cache.hits ctx.c_cache);
  Telemetry.add
    (Telemetry.counter t "placer.route_cache.misses")
    (Score_cache.misses ctx.c_cache);
  Telemetry.set
    (Telemetry.gauge t "placer.scoring.seconds")
    !(ctx.c_scoring_time);
  (* Only stamped when the run actually built the hierarchy, so classic
     runs' snapshots are unchanged. *)
  (match if Lazy.is_val ctx.c_hier then Lazy.force ctx.c_hier else None with
  | Some hier ->
    Telemetry.set
      (Telemetry.gauge t "placer.scale.coarsen_levels")
      (float_of_int (Coarsen.levels hier))
  | None -> ());
  (* The phase clocks only tick while telemetry is armed (see [in_phase]);
     with it off the gauges would all read 0, so skip registering them —
     [phase_seconds] treats absent gauges as an empty breakdown. *)
  if phases_armed () then begin
    let phase name cell = Telemetry.set (Telemetry.gauge t name) !cell in
    let p = ctx.c_phases in
    phase "placer.phase.split.seconds" p.ph_split;
    phase "placer.phase.enumerate.seconds" p.ph_enumerate;
    phase "placer.phase.greedy.seconds" p.ph_greedy;
    phase "placer.phase.lookahead.seconds" p.ph_lookahead;
    phase "placer.phase.fine_tune.seconds" p.ph_fine_tune;
    phase "placer.phase.route.seconds" p.ph_route;
    phase "placer.phase.balance.seconds" p.ph_balance
  end;
  let stats =
    {
      oracle_calls = oracle.Workspace.calls;
      enumerations = Telemetry.count ctx.c_enumerations;
      candidates_scored = Telemetry.count ctx.c_scored;
      candidates_pruned = Telemetry.count ctx.c_pruned;
      lower_bound_skips = Telemetry.count ctx.c_bound_skips;
      timing_early_exits = Telemetry.count ctx.c_early_exits;
      networks_routed = Telemetry.count ctx.c_routed;
      route_cache_hits = Score_cache.hits ctx.c_cache;
      route_cache_misses = Score_cache.misses ctx.c_cache;
      scoring_seconds = !(ctx.c_scoring_time);
    }
  in
  let snapshot = Telemetry.snapshot t in
  (* Folding into the process-global registry costs a pass over the
     global table under its lock, so it only happens when someone armed
     telemetry and will actually read the aggregate. *)
  if Telemetry.enabled () then Telemetry.merge_into t ~into:Telemetry.global;
  (stats, snapshot)

let run ~reference ?(deadline = infinity) ?spill options env circuit =
  Qcp_obs.Trace.with_span ~cat:"placer" "placer/place" @@ fun () ->
  let circuit =
    if options.Options.commute_prepass then
      Qcp_circuit.Transform.optimize_for_placement circuit
    else circuit
  in
  let n = Circuit.qubits circuit in
  let m = Environment.size env in
  if n > m then
    Unplaceable
      (Printf.sprintf "circuit needs %d qubits but the environment has %d" n m)
  else
    match Environment.connected_adjacency env ~threshold:options.Options.threshold with
    | None ->
      Unplaceable "the Threshold disallows every interaction in the environment"
    | Some adjacency -> (
      let rm = Domain.DLS.get run_metrics_key in
      Telemetry.reset rm.rm_registry;
      let sink =
        match (spill, options.Options.spill) with
        | Some sink, _ -> Some sink
        | None, Options.Spill_file path -> Some (Spill.file path)
        | None, Options.Spill_drop -> Some Spill.null
        | None, Options.No_spill -> None
      in
      let router, c_router = router_of options env adjacency in
      let table =
        if reference then Score_cache.uncached ()
        else
          let shared =
            Score_cache.shared adjacency ~router
              ~leaf_override:options.Options.leaf_override
          in
          (* A spill run's routes stay out of the cross-run table: a
             multi-thousand-stage run feeding the
             process-lifetime table would grow the heap with gate count —
             exactly what spill mode promises not to do. *)
          if Option.is_some sink then Score_cache.private_copy shared
          else shared
      in
      let ctx =
        {
          c_env = env;
          c_adjacency = adjacency;
          c_options = options;
          c_weights = Environment.weights env;
          c_m = m;
          c_n = n;
          c_metrics = rm.rm_registry;
          c_oracle = Workspace.counters ();
          c_enumerations = rm.rm_enumerations;
          c_scored = rm.rm_scored;
          c_pruned = rm.rm_pruned;
          c_bound_skips = rm.rm_bound_skips;
          c_early_exits = rm.rm_early_exits;
          c_routed = rm.rm_routed;
          c_phases = make_phase_times ();
          c_deadline = deadline;
          c_reference = reference;
          c_cache = Score_cache.create table;
          c_router;
          c_scratch = Timing.make_scratch ();
          c_scoring_time = ref 0.0;
          c_dist = lazy (bfs_table adjacency);
          c_swap = swap_metric options env adjacency;
          c_hier =
            lazy
              (if options.Options.coarsen && m >= coarsen_min_env then begin
                 let hier =
                   Coarsen.build
                     ~weight:(fun u v ->
                       1.0
                       /. Float.max 1e-9 (Environment.coupling_delay env u v))
                     adjacency
                 in
                 if Coarsen.levels hier >= 2 then Some hier else None
               end
               else None);
        }
      in
      let placed stages spilled =
        let stats, snapshot = finalize_metrics ctx in
        Placed
          { env; source = circuit; options; adjacency; stages; spilled; stats;
            metrics = snapshot }
      in
      match sink with
      | Some sink -> (
        (* Spill mode: stages stream out of the splitter straight through
           the sink and the program keeps only the summary. *)
        match run_stages ctx ~sink (stream_feed ctx circuit) with
        | Error msg -> Unplaceable msg
        | Ok summary -> placed [] (Some summary))
      | None -> (
        match
          in_phase ctx.c_phases.ph_split ~name:"placer/split" (fun () ->
              fold_stages ctx ~init:[] ~stage:(fun acc s -> s :: acc) circuit)
        with
        | Error msg -> Unplaceable msg
        | Ok reversed -> (
          let stages = List.rev reversed in
          let stages =
            (* Boundary refinement moves gates between the greedy split's
               stages, so it runs only on that split, and it drops the
               witness hints a donation would invalidate. *)
            if
              options.Options.balance_boundaries
              && options.Options.window = 1
              && List.length stages > 1
            then
              in_phase ctx.c_phases.ph_balance ~name:"placer/balance" (fun () ->
                  List.map
                    (fun sub -> (sub, None))
                    (balance_boundaries ctx (List.map fst stages)))
            else stages
          in
          let sink, collected = collect () in
          match run_stages ctx ~sink (feed_list stages) with
          | Error msg -> Unplaceable msg
          | Ok _ ->
            let stage_list = collected () in
            let stage_list =
              if options.Options.vcycle > 0 then vcycle_refine ctx stage_list
              else stage_list
            in
            placed stage_list None)))

let place ?deadline ?spill options env circuit =
  run ~reference:false ?deadline ?spill options env circuit

let place_reference options env circuit =
  run ~reference:true options env circuit

(* Jobs run as pool tasks, so their internal parallel layers (scoring
   sweeps, enumeration) serialize via the pool's nested-use
   guard; each job is exactly the sequential engine.  Cross-run state is
   thread-safe: jobs with equal environment and threshold resolve to the
   same physical adjacency graph ({!Environment.connected_adjacency},
   mutex-protected) and therefore to the same {!Score_cache} route table
   per router (mutex-protected entries, internally locked memo). *)
let place_batch ?(jobs = 0) ?(deadline_of = fun _ -> infinity) specs =
  let arr = Array.of_list specs in
  let total = Array.length arr in
  if jobs <= 1 || total <= 1 then
    List.mapi
      (fun i (options, env, circuit) ->
        place ~deadline:(deadline_of i) options env circuit)
      specs
  else begin
    let out = Array.make total None in
    Qcp_util.Task_pool.parallel_for
      (Qcp_util.Task_pool.get ())
      ~jobs
      ~body:(fun ~worker:_ i ->
        let options, env, circuit = arr.(i) in
        out.(i) <- Some (place ~deadline:(deadline_of i) options env circuit))
      total;
    Array.to_list
      (Array.map (function Some o -> o | None -> assert false) out)
  end

let stage_circuits program =
  let m = Environment.size program.env in
  List.map
    (function
      | Compute { placement; circuit } ->
        Circuit.map_qubits (fun q -> placement.(q)) ~qubits:m circuit
      | Permute net -> Swap_network.to_circuit ~qubits:m net)
    program.stages

let runtime program =
  match program.spilled with
  | Some s ->
    (* Spilled stages are gone; the pipeline's final finish clocks — which
       a replay would reproduce — were folded into the summary instead. *)
    s.sm_makespan
  | None ->
    let m = Environment.size program.env in
    let weights = Environment.weights program.env in
    let finish =
      List.fold_left
        (fun start circuit ->
          Timing.finish_times ~model:program.options.Options.model
            ?reuse_cap:program.options.Options.reuse_cap ~start ~weights
            ~place:Timing.identity_place circuit)
        (Array.make m 0.0) (stage_circuits program)
    in
    Array.fold_left Float.max 0.0 finish

let runtime_seconds program = runtime program /. units_per_second

let spilled program = program.spilled

let subcircuit_count program =
  match program.spilled with
  | Some s -> s.sm_computes
  | None ->
    List.length
      (List.filter
         (function Compute _ -> true | Permute _ -> false)
         program.stages)

let swap_stage_count program =
  match program.spilled with
  | Some s -> s.sm_networks
  | None ->
    List.length
      (List.filter
         (function Permute _ -> true | Compute _ -> false)
         program.stages)

let swap_depth_total program =
  match program.spilled with
  | Some s -> s.sm_swap_depth
  | None ->
    List.fold_left
      (fun acc stage ->
        match stage with
        | Permute net -> acc + Swap_network.depth net
        | Compute _ -> acc)
      0 program.stages

let swap_count_total program =
  match program.spilled with
  | Some s -> s.sm_swap_count
  | None ->
    List.fold_left
      (fun acc stage ->
        match stage with
        | Permute net -> acc + Swap_network.swap_count net
        | Compute _ -> acc)
      0 program.stages

let placements program =
  List.filter_map
    (function Compute { placement; _ } -> Some placement | Permute _ -> None)
    program.stages

let initial_placement program =
  match program.spilled with
  | Some s -> s.sm_first
  | None -> (
    match placements program with [] -> None | first :: _ -> Some first)

let final_placement program =
  match program.spilled with
  | Some s -> s.sm_last
  | None -> (
    match List.rev (placements program) with [] -> None | last :: _ -> Some last)

let to_physical_circuit program =
  let m = Environment.size program.env in
  List.fold_left Circuit.append
    (Circuit.make ~qubits:m [])
    (stage_circuits program)

let metrics program = program.metrics

(* The phase gauges of {!finalize_metrics}, by bare phase name. *)
let phase_seconds program =
  let prefix = "placer.phase." and suffix = ".seconds" in
  List.filter_map
    (fun (name, value) ->
      match value with
      | Qcp_obs.Metrics.Gauge seconds
        when String.starts_with ~prefix name
             && String.ends_with ~suffix name ->
        let base =
          String.sub name (String.length prefix)
            (String.length name - String.length prefix - String.length suffix)
        in
        Some (base, seconds)
      | _ -> None)
    program.metrics

let pp_json ppf s =
  Format.fprintf ppf
    "{\"oracle_calls\": %d, \"enumerations\": %d, \"candidates_scored\": %d, \
     \"candidates_pruned\": %d, \"lower_bound_skips\": %d, \
     \"timing_early_exits\": %d, \"networks_routed\": %d, \
     \"route_cache_hits\": %d, \"route_cache_misses\": %d, \
     \"scoring_seconds\": %.6f}"
    s.oracle_calls s.enumerations s.candidates_scored s.candidates_pruned
    s.lower_bound_skips s.timing_early_exits s.networks_routed
    s.route_cache_hits s.route_cache_misses s.scoring_seconds

let pp ppf program =
  let env = program.env in
  let nucleus v = Environment.nucleus env v in
  (match program.spilled with
  | Some s ->
    Format.fprintf ppf
      "placed program on %s (spilled: %d compute stages, %d swap stages, %d \
       swap levels, %d swaps, makespan %.1f)@."
      (Environment.name env) s.sm_computes s.sm_networks s.sm_swap_depth
      s.sm_swap_count s.sm_makespan
  | None ->
    Format.fprintf ppf "placed program on %s (%d stages)@."
      (Environment.name env)
      (List.length program.stages));
  let s = program.stats in
  Format.fprintf ppf
    "search: %d candidates scored, %d routing requests (%d cache hits, %d \
     routed), %.4f s scoring@."
    s.candidates_scored s.networks_routed s.route_cache_hits
    s.route_cache_misses s.scoring_seconds;
  if s.candidates_pruned > 0 || s.timing_early_exits > 0 then
    Format.fprintf ppf
      "pruning: %d candidates pruned of %d scored (%.0f%%), %d lower-bound \
       skips, %d timing early exits@."
      s.candidates_pruned s.candidates_scored
      (100.0 *. float_of_int s.candidates_pruned
      /. float_of_int (Int.max 1 s.candidates_scored))
      s.lower_bound_skips s.timing_early_exits;
  List.iteri
    (fun i stage ->
      match stage with
      | Compute { placement; circuit } ->
        Format.fprintf ppf "stage %d: compute %d gates, placement" (i + 1)
          (Circuit.gate_count circuit);
        Array.iteri
          (fun q v -> Format.fprintf ppf " q%d->%s" q (nucleus v))
          placement;
        Format.fprintf ppf "@."
      | Permute net ->
        Format.fprintf ppf "stage %d: permute, %d swap levels (%d swaps)@."
          (i + 1) (Swap_network.depth net)
          (Swap_network.swap_count net))
    program.stages
