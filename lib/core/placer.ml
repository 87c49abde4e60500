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

(* Internal context shared by the pipeline.  Search counters live in a
   per-run {!Qcp_obs.Metrics} registry (each handle is one atomic cell, so
   parallel candidate evaluation shares them exactly like the plain atomics
   they replaced); the remaining refs are only touched by sequential
   orchestration code.  Per-run registries keep concurrent batch jobs
   ({!Portfolio.place_batch}) from contaminating each other's {!stats};
   every run's registry is merged into {!Qcp_obs.Metrics.global} when the
   run finishes while telemetry is armed. *)
type ctx = {
  c_env : Environment.t;
  c_adjacency : Graph.t;
  c_options : Options.t;
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
    Qcp_route.Bisect_router.memo option -> Perm.t -> Score_cache.route_entry;
      (* The run's router, chosen once in {!run}. *)
  c_network : Score_cache.route_entry -> Swap_network.t;
      (* The router's list network for one of its entries, for the stages
         a program keeps. *)
  c_table_ns : int Atomic.t;
  c_router_ns : int Atomic.t;
      (* Wall nanoseconds in route-table lookups (misses included) and in
         router runs; only ticking while {!phases_armed}. *)
  c_scoring_time : float ref; (* wall seconds spent scoring candidates *)
  c_clocks : float array ref;
      (* The picks' finish-clock matrix, a row of [m] per candidate: grown
         on demand and reused by every sweep of the run. *)
  c_scoring : Scoring.t;
      (* The candidate scoring kernel, routing through this run's table. *)
  c_hier : Coarsen.t option Lazy.t;
      (* Coarsening hierarchy of the adjacency graph for the
         coarsen-place-refine path; [None] when [Options.coarsen] is off,
         the environment is below the hierarchy cutoff, or matching made
         no progress.  Lazy so classic runs never pay for it. *)
  c_deadline : float;
      (* Absolute {!Qcp_util.Clock} instant after which the pipeline
         aborts between stages ([infinity]: never, and no clock reads). *)
}

(* The cutoff a bounded evaluation actually applies: [infinity] in the
   exhaustive reference run ({!place_reference}), so no sweep prunes,
   skips or exits early and each argmin scores every candidate in
   full. *)
let cutoff_of ctx cutoff = Scoring.cutoff_of ctx.c_scoring cutoff

(* The "per-run" registry is cached per domain and zeroed at the start of
   every [place]: registry construction and handle interning cost more
   than a micro placement's whole pipeline, while a reset is ~ten atomic
   stores.  Safe because [place] runs to completion on its calling domain
   and never re-enters — concurrent batch jobs run whole jobs on
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

let add_elapsed cell t0 =
  ignore
    (Atomic.fetch_and_add cell
       (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))
      : int)

(* A connecting permutation's route through [cache], by [router] on a
   miss, with the lookup and router clocks ticking while {!phases_armed}.
   The scoring kernel holds it partially applied to one run's table and
   clocks. *)
let route_via ~routed ~cache ~router ~table_ns ~router_ns perm =
  Telemetry.incr routed;
  if phases_armed () then begin
    let t0 = Unix.gettimeofday () in
    let timed memo perm =
      let t0 = Unix.gettimeofday () in
      let entry = router memo perm in
      add_elapsed router_ns t0;
      entry
    in
    let entry = Score_cache.route cache ~route:timed perm in
    add_elapsed table_ns t0;
    entry
  end
  else Score_cache.route cache ~route:router perm

let route_network ctx perm =
  route_via ~routed:ctx.c_routed ~cache:ctx.c_cache ~router:ctx.c_router
    ~table_ns:ctx.c_table_ns ~router_ns:ctx.c_router_ns perm

(* The run's router, the registry key its routes are shared under, and
   its list network for an entry.  Odd-even off a chain is exactly the
   unweighted bisection, so it routes and shares as one.  Every router
   answers with a swap sequence; the bisection routers' levels are
   uncompressed, the others' final. *)
let router_of options env adjacency =
  (* Boxed once here rather than at every call. *)
  let leaf_override = Some options.Options.leaf_override in
  let bisect ?edge_cost memo perm =
    Qcp_route.Bisect_router.route_sequence ?leaf_override ?edge_cost ?memo
      adjacency ~perm
  in
  let listed route _memo perm = Swap_network.of_levels (route adjacency ~perm) in
  match options.Options.router with
  | Options.Bisect -> (Options.Bisect, (fun memo -> bisect memo), Swap_network.compressed)
  | Options.Bisect_weighted ->
    ( Options.Bisect_weighted,
      bisect ~edge_cost:(fun u v -> Environment.coupling_delay env u v),
      Swap_network.compressed )
  | Options.Token ->
    (Options.Token, listed Qcp_route.Token_router.route, Swap_network.levels)
  | Options.Odd_even -> (
    match Qcp_route.Oes_router.path_order adjacency with
    | Some _ ->
      (Options.Odd_even, listed Qcp_route.Oes_router.route, Swap_network.levels)
    | None -> (Options.Bisect, (fun memo -> bisect memo), Swap_network.compressed))

(* {!Scoring.complete} into a fresh array; in the first stage qubits with
   the heaviest single-qubit workload get the fastest nuclei. *)
let complete_placement ctx ~prev ~subcircuit mapping =
  match prev with
  | Some previous ->
    let lane = Scoring.lane ctx.c_scoring in
    Scoring.complete ctx.c_scoring lane ~previous mapping;
    Array.sub (Scoring.next lane) 0 ctx.c_n
  | None ->
    let placement = Array.make ctx.c_n (-1) in
    let taken = Array.make ctx.c_m false in
    Array.iteri
      (fun q v ->
        if v >= 0 then begin
          placement.(q) <- v;
          taken.(v) <- true
        end)
      mapping;
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
      (Qcp_util.Listx.take (List.length by_workload) free);
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
  Option.map ctx.c_network (connecting_stage ctx ~prev placement)

(* Score one candidate placement from the current physical clock: optional
   connecting SWAP stage, then the subcircuit.  Returns the network, the
   updated clock and the makespan. *)
let score_candidate ctx ~phys_start ~prev ~stage placement =
  Telemetry.incr ctx.c_scored;
  let entry = connecting_stage ctx ~prev placement in
  let scratch = Scoring.scratch (Scoring.lane ctx.c_scoring) in
  Timing.stage_start scratch phys_start;
  let completed =
    (match entry with
    | None -> true
    | Some entry -> Scoring.advance_swaps ctx.c_scoring scratch ~cutoff:infinity entry)
    && Scoring.advance ctx.c_scoring scratch ~cutoff:infinity placement stage
  in
  assert completed;
  ( Option.map ctx.c_network entry,
    Timing.stage_clocks scratch,
    Timing.stage_makespan scratch )

(* Evaluate [eval lane i] for every slot, fanning the independent
   evaluations across [Options.jobs] domains of the shared
   {!Qcp_util.Task_pool}; each domain scores in its own {!Scoring.lane}.  Each
   slot writes only its own cell, so the result array is
   schedule-independent up to the monotonicity argument in
   {!lower_bound_first}. *)
let sweep_scores ctx total eval =
  let jobs = Int.min ctx.c_options.Options.jobs total in
  let out = Array.make total infinity in
  if jobs <= 1 then begin
    let lane = Scoring.lane ctx.c_scoring in
    for i = 0 to total - 1 do
      out.(i) <- eval lane i
    done
  end
  else begin
    (* Slots read the distance tables; forcing a lazy value from two
       domains at once raises [CamlinternalLazy.Undefined]. *)
    Scoring.force ctx.c_scoring;
    Qcp_util.Task_pool.parallel_for
      (Qcp_util.Task_pool.get ())
      ~jobs
      ~body:(fun ~worker:_ i -> out.(i) <- eval (Scoring.lane ctx.c_scoring) i)
      total
  end;
  out

(* The one candidate argmin, lower bound first.  [bounds.(i)] is an
   admissible lower bound on candidate [i]'s score.  Candidates are
   evaluated in ascending order of it (original index breaking ties); one
   whose bound already exceeds the incumbent (seeded with [cutoff]) is
   skipped outright, and survivors run [exact lane ~cutoff i] under the
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
  let eval lane k =
    let i = order.(k) in
    let limit = cutoff_of ctx (Incumbent.get incumbent) in
    let s =
      if bounds.(i) > limit then begin
        Telemetry.incr ctx.c_bound_skips;
        infinity
      end
      else exact lane ~cutoff:limit i
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
   scale-grid circuits needs is 14,329 nodes, so none of them is cut.
   The classic enumeration the scale path falls back to, and the search
   over every first image a capped run falls back to last, carry the same
   budget under [root_cap]; none of those circuits takes either path. *)
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
let fine_tune ctx ~phys_start ~prev ~subcircuit ~stage placement =
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
    Scoring.score_makespan ?cutoff ctx.c_scoring
      (Scoring.lane ctx.c_scoring)
      ~phys_start ~prev ~stage candidate
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

(* The classic full-graph enumeration.  Under [root_cap] its slots carry
   the region path's node budget too (the budget is only read with a
   cap): the scale path lands here when a region declines, and on a 10x10
   grid an unbudgeted slot here ran for more than 20 s. *)
let enumerate_mappings ctx ~subcircuit =
  Telemetry.incr ctx.c_enumerations;
  Score_cache.mappings ctx.c_cache subcircuit ~enumerate:(fun subcircuit ->
      let pattern = Score_cache.interaction_graph ctx.c_cache subcircuit in
      Monomorph.enumerate ~limit:ctx.c_options.Options.monomorphism_limit
        ~jobs:ctx.c_options.Options.jobs
        ?root_cap:ctx.c_options.Options.root_cap
        ~slot_budget:scale_slot_budget ~pattern ~target:ctx.c_adjacency ())

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

(* A capped search can come back empty on a stage the splitter proved
   alignable: none of the kept first images holds an embedding, and on a
   path target the oracle decides without a witness.  Such a stage takes
   the witness, else every first image under the same slot budget (a cap
   of [m] keeps them all, in ascending order) -- never an unbudgeted
   search, which did not finish in 20 s on a 10x10 grid. *)
let uncapped_fallback ctx ~hint ~subcircuit =
  match witness_mapping ctx ~subcircuit hint with
  | Some m -> [ m ]
  | None ->
    let pattern = Score_cache.interaction_graph ctx.c_cache subcircuit in
    Monomorph.enumerate ~limit:ctx.c_options.Options.monomorphism_limit
      ~jobs:ctx.c_options.Options.jobs ~root_cap:ctx.c_m
      ~slot_budget:scale_slot_budget ~pattern ~target:ctx.c_adjacency ()

let enumerate_candidates ?hint ctx ~prev ~subcircuit =
  let mappings =
    if ctx.c_options.Options.coarsen then
      match scale_mappings ctx ~prev ~hint ~subcircuit with
      | Some mappings -> mappings
      | None -> enumerate_mappings ctx ~subcircuit
    else enumerate_mappings ctx ~subcircuit
  in
  let mappings =
    match (mappings, ctx.c_options.Options.root_cap) with
    | [], Some _ -> uncapped_fallback ctx ~hint ~subcircuit
    | _ -> mappings
  in
  List.map (complete_placement ctx ~prev ~subcircuit) mappings

(* The run's finish-clock matrix with room for [rows] candidates.  Only
   the sequential picks call this, and a row is read only after its
   candidate wrote it. *)
let clock_rows ctx rows =
  if Array.length !(ctx.c_clocks) < rows * ctx.c_m then
    ctx.c_clocks := Array.make (rows * ctx.c_m) 0.0;
  !(ctx.c_clocks)

(* Best single-stage candidate by makespan, through {!lower_bound_first}.
   Picks return the winner and its stage finish clocks when the sweep
   already computed them exactly (so the pipeline can skip re-timing the
   winner; [None] means replay).  Finish clocks go into one matrix per
   sweep, a row per candidate.  With a previous placement the bound is
   {!candidate_bound}, so a candidate is skipped before the router ever
   runs; the first stage routes nothing and has no bound cheaper than
   its score, so there every candidate evaluates under the incumbent. *)
let pick_greedy ~cutoff ctx ~phys_start ~prev ~stage candidates =
  match candidates with
  | [] -> None
  | _ ->
    let arr = Array.of_list candidates in
    let total = Array.length arr and m = ctx.c_m in
    let bounds =
      match prev with
      | None -> Array.make total neg_infinity
      | Some _ ->
        sweep_scores ctx total (fun lane i ->
            Scoring.candidate_bound ctx.c_scoring lane ~phys_start ~prev ~stage
              arr.(i))
    in
    let finish = clock_rows ctx total in
    let timed = Array.make total false in
    let best =
      lower_bound_first ~cutoff ctx ~bounds ~exact:(fun lane ~cutoff i ->
          let s =
            Scoring.score_makespan ~cutoff ~prebound:false ctx.c_scoring lane
              ~phys_start ~prev ~stage arr.(i)
          in
          (* A completed sweep leaves the exact finish clocks loaded
             (bit-identical to a fresh replay). *)
          if s < infinity then begin
            Array.blit (Timing.clocks (Scoring.scratch lane)) 0 finish (i * m) m;
            timed.(i) <- true
          end;
          s)
    in
    Some
      ( arr.(best),
        if timed.(best) then Some (Array.sub finish (best * m) m) else None )

(* Depth-2 lookahead score (paper Section 5.3): the best achievable makespan
   after also placing the *next* subcircuit with its own connecting swaps.
   The next stage's raw monomorphisms are independent of the current
   candidate (the paper's "the sets M_{i,j} for different values i are
   equal" remark), so they are enumerated once and passed in; only their
   completion over inactive qubits depends on the current placement.
   Exact whenever the result is [<= cutoff]; [infinity] otherwise. *)
let deep_score ?(cutoff = infinity) ctx ~phys_start ~prev ~stage ~next_stage
    ~next_mappings placement =
  let scoring = ctx.c_scoring in
  let lane = Scoring.lane scoring in
  let stage1 =
    Scoring.score_makespan ~cutoff scoring lane ~phys_start ~prev ~stage placement
  in
  if stage1 = infinity then infinity
  else
    Scoring.deep_tail scoring lane ~cutoff
      ~start:(Timing.stage_clocks (Scoring.scratch lane))
      ~pos:0 ~stage1 ~placement ~next_stage ~next_mappings

(* Depth-2 lookahead selection through {!lower_bound_first}: the clocks
   are monotone, so a candidate's stage-1 makespan is an admissible lower
   bound on its two-stage score.  Stage-1 makespans are computed exactly
   for every candidate first (they also yield the stage-1 finish clocks,
   kept in one matrix per sweep, reused by the next-stage completions and
   returned for the winner), and survivors' completions run under the
   incumbent as cutoff. *)
let pick_lookahead ~cutoff ctx ~phys_start ~prev ~stage ~next_stage
    ~next_mappings candidates =
  match candidates with
  | [] -> None
  | _ ->
    let arr = Array.of_list candidates in
    let total = Array.length arr and m = ctx.c_m in
    let finish = clock_rows ctx total in
    let bounds =
      sweep_scores ctx total (fun lane i ->
          let b =
            Scoring.score_makespan ctx.c_scoring lane ~phys_start ~prev ~stage
              arr.(i)
          in
          Array.blit (Timing.clocks (Scoring.scratch lane)) 0 finish (i * m) m;
          b)
    in
    let best =
      lower_bound_first ~cutoff ctx ~bounds ~exact:(fun lane ~cutoff i ->
          Scoring.deep_tail ctx.c_scoring lane ~cutoff ~start:finish
            ~pos:(i * m) ~stage1:bounds.(i) ~placement:arr.(i) ~next_stage
            ~next_mappings)
    in
    Some (arr.(best), Some (Array.sub finish (best * m) m))

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
        ( Score_cache.compiled ctx.c_cache next,
          in_phase ctx.c_phases.ph_enumerate ~name:"placer/enumerate"
            (fun () -> Array.of_list (enumerate_mappings ctx ~subcircuit:next)) )
    | Some _ | None -> None
  in
  let stage = Score_cache.compiled ctx.c_cache subcircuit in
  let chosen =
    timed ctx (fun () ->
        match next_mappings with
        | Some (next_stage, next_mappings) ->
          in_phase ctx.c_phases.ph_lookahead ~name:"placer/lookahead"
            (fun () ->
              pick_lookahead ~cutoff ctx ~phys_start ~prev ~stage ~next_stage
                ~next_mappings candidates)
        | None ->
          in_phase ctx.c_phases.ph_greedy ~name:"placer/greedy" (fun () ->
              pick_greedy ~cutoff ctx ~phys_start ~prev ~stage candidates))
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
      let candidate =
        fine_tune ctx ~phys_start ~prev ~subcircuit ~stage placement
      in
      match next_mappings with
      | Some (next_stage, next_mappings) when candidate <> placement ->
        let judge ?cutoff p =
          deep_score ?cutoff ctx ~phys_start ~prev ~stage ~next_stage
            ~next_mappings p
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
              | _ -> score_candidate ctx ~phys_start ~prev ~stage tuned))
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
  let table_ns = Atomic.make 0 and router_ns = Atomic.make 0 in
  let cheap_ctx =
    {
      ctx with
      c_options =
        {
          ctx.c_options with
          Options.lookahead = false;
          fine_tune_passes = 0;
        };
      (* Trial pipelines keep their own phase and route clocks: their
         time is the balance phase's, not enumerate/greedy/route time of
         the real pipeline.  Search counters intentionally stay shared. *)
      c_phases = make_phase_times ();
      c_table_ns = table_ns;
      c_router_ns = router_ns;
      c_scoring =
        Scoring.with_route ctx.c_scoring
          (route_via ~routed:ctx.c_routed ~cache:ctx.c_cache
             ~router:ctx.c_router ~table_ns ~router_ns);
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
    phase "placer.phase.balance.seconds" p.ph_balance;
    let nanos name cell =
      Telemetry.set (Telemetry.gauge t name) (float_of_int (Atomic.get cell) /. 1e9)
    in
    nanos "placer.route_table.seconds" ctx.c_table_ns;
    nanos "placer.router.seconds" ctx.c_router_ns
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
      let router, c_router, c_network = router_of options env adjacency in
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
          if Option.is_some spill then Score_cache.private_copy shared
          else shared
      in
      let cache = Score_cache.create table in
      let table_ns = Atomic.make 0 and router_ns = Atomic.make 0 in
      let scoring =
        Scoring.create ~reference options env adjacency ~n
          ~scored:rm.rm_scored ~early_exits:rm.rm_early_exits
          ~route:
            (route_via ~routed:rm.rm_routed ~cache ~router:c_router ~table_ns
               ~router_ns)
      in
      let ctx =
        {
          c_env = env;
          c_adjacency = adjacency;
          c_options = options;
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
          c_cache = cache;
          c_router;
          c_network;
          c_table_ns = table_ns;
          c_router_ns = router_ns;
          c_scoring_time = ref 0.0;
          c_clocks = ref [||];
          c_scoring = scoring;
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
      match spill with
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
          | Ok _ -> placed (collected ()) None)))

(* The sink closes here, once, whichever way the run ends: the early
   [Unplaceable] returns and an exception out of [emit] included. *)
let place ?deadline ?spill options env circuit =
  match spill with
  | None -> run ~reference:false ?deadline options env circuit
  | Some sink ->
    Fun.protect ~finally:sink.Spill.close @@ fun () ->
    run ~reference:false ?deadline ~spill:sink options env circuit

let place_reference options env circuit =
  run ~reference:true options env circuit

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
