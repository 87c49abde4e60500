(* Property tests for the incremental scoring engine (Score_cache + pool
   fan-out + incumbent pruning): memoization, parallel jobs and pruning are
   pure performance features, so every placement decision -- the stage
   list, the end-to-end runtime, the swap counts -- must be bit-identical to
   the exhaustive oracle {!Placer.place_reference} (cache off, every
   candidate scored in full).  The same invariance is asserted for the
   annealer's parallel restarts and for [Portfolio.place_batch]. *)

module Placer = Qcp.Placer
module Options = Qcp.Options
module Portfolio = Qcp.Portfolio
module Environment = Qcp_env.Environment

(* [jobs] is pinned explicitly so the sweep is the same under any ambient
   QCP_JOBS (the CI runs it at 0 and 2).  The oracle runs sequentially. *)
let reference options env circuit =
  Placer.place_reference { options with Options.jobs = 0 } env circuit

let variants options =
  [
    ("jobs0", { options with Options.jobs = 0 });
    ("jobs4", { options with Options.jobs = 4 });
  ]

let check_identical ~seed reference (name, outcome) =
  let tag what = Printf.sprintf "seed %d, %s: %s" seed name what in
  match (reference, outcome) with
  | Placer.Unplaceable a, Placer.Unplaceable b ->
    Alcotest.(check string) (tag "same failure") a b
  | Placer.Placed _, Placer.Unplaceable msg ->
    Alcotest.fail (tag ("unplaceable only with this variant: " ^ msg))
  | Placer.Unplaceable msg, Placer.Placed _ ->
    Alcotest.fail (tag ("placeable only with this variant: " ^ msg))
  | Placer.Placed a, Placer.Placed b ->
    Alcotest.(check bool) (tag "identical stages") true
      (a.Placer.stages = b.Placer.stages);
    (* Exact float equality on purpose: the engines must run the same float
       operations in the same order. *)
    Alcotest.(check bool) (tag "identical runtime") true
      (Placer.runtime a = Placer.runtime b);
    Alcotest.(check int) (tag "swap stages") (Placer.swap_stage_count a)
      (Placer.swap_stage_count b);
    Alcotest.(check int) (tag "swap depth") (Placer.swap_depth_total a)
      (Placer.swap_depth_total b);
    (* The route cache is transparent bookkeeping in every variant. *)
    let sb = b.Placer.stats in
    Alcotest.(check int)
      (tag "hits + misses = requests")
      sb.Placer.networks_routed
      (sb.Placer.route_cache_hits + sb.Placer.route_cache_misses)

let options_for ~seed threshold =
  (* Alternate option profiles so the sweep exercises lookahead + fine
     tuning, the cheap greedy path and boundary balancing, and rotate the
     router on a different period: the weighted bisection and odd-even
     routes have tables of their own (odd-even shares the unweighted
     bisection's off chains). *)
  let profile =
    match seed mod 3 with
    | 0 -> Options.fast ~threshold
    | 1 -> Options.default ~threshold
    | _ ->
      { (Options.default ~threshold) with Options.balance_boundaries = true }
  in
  let router =
    match seed / 3 mod 3 with
    | 0 -> Options.Bisect
    | 1 -> Options.Bisect_weighted
    | _ -> Options.Odd_even
  in
  { profile with Options.router }

(* The oracle prunes nothing and never reads the cache. *)
let check_exhaustive ~seed = function
  | Placer.Placed p ->
    let s = p.Placer.stats in
    let tag what = Printf.sprintf "seed %d, reference: %s" seed what in
    Alcotest.(check int) (tag "no pruning") 0 s.Placer.candidates_pruned;
    Alcotest.(check int) (tag "no bound skips") 0 s.Placer.lower_bound_skips;
    Alcotest.(check int) (tag "no early exits") 0 s.Placer.timing_early_exits;
    Alcotest.(check int) (tag "no cache hits") 0 s.Placer.route_cache_hits
  | Placer.Unplaceable _ -> ()

(* An environment equal to [env] but owning its own adjacency memo, hence
   its own (empty) cross-run route tables: a run over it routes from
   scratch, whatever ran over [env] before. *)
let fresh_copy env =
  let m = Environment.size env in
  Environment.make ~name:(Environment.name env)
    ~nuclei:(Array.init m (Environment.nucleus env))
    ~delay:
      (Array.init m (fun i -> Array.init m (Environment.coupling_delay env i)))
    ~t2:(Array.init m (Environment.t2 env))
    ()

(* Returns the variants' outcomes, in [variants] order.  Each variant runs
   over its own copy of [env], so none hits routes another one inserted:
   the jobs 4 sweeps race to miss and insert into an empty table. *)
let check_against_reference ~seed options env circuit =
  let expected = reference options env circuit in
  check_exhaustive ~seed expected;
  List.map
    (fun (name, o) ->
      let outcome = Placer.place o (fresh_copy env) circuit in
      check_identical ~seed expected (name, outcome);
      (match outcome with
      | Placer.Placed p when p.Placer.stats.Placer.networks_routed > 0 ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d, %s: routes from an empty table" seed name)
          true
          (p.Placer.stats.Placer.route_cache_misses > 0)
      | _ -> ());
      outcome)
    (variants options)

let test_engine_identical () =
  for seed = 1 to 50 do
    let rng = Qcp_util.Rng.create seed in
    let n = 4 + Qcp_util.Rng.int rng 5 in
    let env = Qcp_env.Random_env.molecule rng ~n in
    let threshold = Qcp_env.Random_env.interesting_threshold rng env in
    let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
    ignore
      (check_against_reference ~seed (options_for ~seed threshold) env circuit
        : Placer.outcome list)
  done;
  (* The scale profile (windowed split, coarsened region enumeration,
     capped roots) on grids above the hierarchy cutoff, small enough per
     stage that the region path, not the full-graph fallback, picks. *)
  for seed = 1 to 3 do
    let rng = Qcp_util.Rng.create (500 + seed) in
    let env = Environment.grid 8 8 in
    let circuit =
      Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:12 ~stages:3
        ~gates_per_stage:30
    in
    match
      check_against_reference ~seed:(500 + seed)
        (Options.scale ~threshold:50.0)
        env circuit
    with
    | Placer.Placed p :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: region path taken" (500 + seed))
        true
        (Qcp_obs.Metrics.find p.Placer.metrics "placer.scale.region_size"
        <> None)
    | _ -> Alcotest.fail "scale grid instance unplaceable"
  done

let test_cache_actually_hits () =
  (* On the Table 3 workload the lookahead sweep revisits permutations
     constantly; the cache must absorb a substantial share of requests.
     [jobs] pinned to 0: hit/miss splits are schedule-dependent under
     parallel sweeps. *)
  let env = Qcp_env.Molecules.trans_crotonic_acid in
  let circuit = Qcp_circuit.Catalog.phase_estimation 4 in
  match
    Placer.place
      { (Options.default ~threshold:100.0) with Options.jobs = 0 }
      env circuit
  with
  | Placer.Unplaceable msg -> Alcotest.fail msg
  | Placer.Placed p ->
    let s = p.Placer.stats in
    Alcotest.(check bool) "has hits" true (s.Placer.route_cache_hits > 0);
    Alcotest.(check int) "split sums" s.Placer.networks_routed
      (s.Placer.route_cache_hits + s.Placer.route_cache_misses)

let test_bounded_actually_prunes () =
  (* Same workload: a meaningful share of candidate evaluations must be
     refuted before completing.  [jobs]
     pinned to 0: the exact pruned/early-exit counts are schedule-dependent
     under parallel sweeps. *)
  let env = Qcp_env.Molecules.trans_crotonic_acid in
  let circuit = Qcp_circuit.Catalog.phase_estimation 4 in
  match
    Placer.place
      { (Options.default ~threshold:100.0) with Options.jobs = 0 }
      env circuit
  with
  | Placer.Unplaceable msg -> Alcotest.fail msg
  | Placer.Placed p ->
    let s = p.Placer.stats in
    Alcotest.(check bool) "prunes candidates" true
      (s.Placer.candidates_pruned > 0);
    Alcotest.(check bool) "timing sweeps abort" true
      (s.Placer.timing_early_exits > 0);
    Alcotest.(check bool) "lookahead skips bounds" true
      (s.Placer.lower_bound_skips > 0)

(* The annealer's parallel restarts must be a pure function of the seed:
   jobs=0 and jobs=4 anneal the same split streams, and the earliest-tie
   winner is schedule-independent. *)
let test_annealer_identical () =
  for seed = 1 to 50 do
    let rng = Qcp_util.Rng.create (900 + seed) in
    let n = 4 + Qcp_util.Rng.int rng 4 in
    let env = Qcp_env.Random_env.molecule rng ~n in
    let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
    let run jobs =
      Qcp.Annealer.solve_restarts ~restarts:3 ~jobs ~iterations:200 ~seed env
        circuit
    in
    let placement0, cost0 = run 0 in
    let placement4, cost4 = run 4 in
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d: same placement" seed)
      placement0 placement4;
    (* Exact float equality on purpose, as everywhere in this suite. *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: same cost" seed)
      true (cost0 = cost4)
  done

(* [Portfolio.place_batch] outcomes for classic specs must equal per-spec
   [Placer.place] calls, in order, at any batch jobs value — including
   specs whose own [Options.jobs] exercise the pool's nested-use guard
   under a parallel batch.  Each pass builds its specs afresh, so no pass
   hits routes an earlier one inserted; within a pass, a seed's two specs
   share one environment, so a parallel batch races two runs over one
   empty route table. *)
let test_place_batch_identical () =
  let specs () =
    List.concat_map
      (fun seed ->
        let rng = Qcp_util.Rng.create (7000 + seed) in
        let n = 4 + Qcp_util.Rng.int rng 4 in
        let env = Qcp_env.Random_env.molecule rng ~n in
        let threshold = Qcp_env.Random_env.interesting_threshold rng env in
        let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
        let options = options_for ~seed threshold in
        [
          ({ options with Options.jobs = 0 }, env, circuit);
          ({ options with Options.jobs = 2 }, env, circuit);
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let sequential =
    List.map (fun (o, e, c) -> Placer.place o e c) (specs ())
  in
  List.iter
    (fun batch_jobs ->
      let batch = Portfolio.place_batch ~jobs:batch_jobs (specs ()) in
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: one outcome per spec" batch_jobs)
        (List.length sequential) (List.length batch);
      List.iteri
        (fun i (reference, outcome) ->
          check_identical ~seed:i reference
            (Printf.sprintf "place_batch jobs %d, spec %d" batch_jobs i, outcome))
        (List.combine sequential batch))
    [ 0; 4 ]

(* Every cross-run route table is bounded by a FIFO cap: at
   [route_capacity] entries, inserting a new permutation evicts the oldest
   *inserted* one, so the surviving set is a deterministic function of the
   insertion sequence (a daemon replaying identical traffic sees identical
   hit patterns).  A fresh graph owns fresh registry tables
   (physical-identity key), so this test controls its table completely; a
   trivial router keeps the fill cheap. *)
let test_route_fifo_eviction () =
  let register = 8 in
  let cap = Qcp.Score_cache.route_capacity in
  let graph =
    Qcp_graph.Graph.of_edges register
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ]
  in
  let cache =
    Qcp.Score_cache.create
      (Qcp.Score_cache.shared graph ~router:Options.Bisect ~leaf_override:false)
  in
  let route _memo _perm = [||] in
  (* Lehmer-code unranking: a distinct permutation of [register] elements
     per rank (all ranks used stay far below 8! = 40320). *)
  let fact = Array.make register 1 in
  for i = 1 to register - 1 do
    fact.(i) <- fact.(i - 1) * i
  done;
  let perm_of_rank rank =
    let rec pick avail r i =
      if i = register then []
      else
        let f = fact.(register - 1 - i) in
        let d = r / f in
        List.nth avail d
        :: pick (List.filteri (fun j _ -> j <> d) avail) (r mod f) (i + 1)
    in
    Array.of_list (pick (List.init register Fun.id) rank 0)
  in
  let query rank =
    ignore
      (Qcp.Score_cache.route cache ~route (perm_of_rank rank)
        : Qcp.Score_cache.route_entry)
  in
  let total = cap + 16 in
  for rank = 0 to total - 1 do
    query rank
  done;
  Alcotest.(check int) "every insert missed" total (Qcp.Score_cache.misses cache);
  (* The newest [cap] insertions survive the fill... *)
  let h0 = Qcp.Score_cache.hits cache in
  for rank = 16 to total - 1 do
    query rank
  done;
  Alcotest.(check int) "newest cap entries hit" cap
    (Qcp.Score_cache.hits cache - h0);
  (* ...and the oldest 16 were evicted.  Re-querying them misses and
     re-inserts, which in FIFO order must evict precisely the next-oldest
     16 (ranks 16..31) — an LRU registry would have refreshed those on the
     hit pass above and evicted something else. *)
  let m0 = Qcp.Score_cache.misses cache in
  for rank = 0 to 15 do
    query rank
  done;
  Alcotest.(check int) "oldest 16 evicted first" 16
    (Qcp.Score_cache.misses cache - m0);
  let m1 = Qcp.Score_cache.misses cache in
  for rank = 16 to 31 do
    query rank
  done;
  Alcotest.(check int) "eviction follows insertion order" 16
    (Qcp.Score_cache.misses cache - m1)

let place_exn ?spill options env circuit =
  match Placer.place ?spill options env circuit with
  | Placer.Placed p -> p
  | Placer.Unplaceable msg -> Alcotest.fail msg

(* Every router's routes live in the cross-run table of their graph, so a
   repeated placement over the same environment routes nothing.  The
   registry lookup happens before enumeration fills the graph's lazy
   degree tables, so this also pins a registry hash over immutable graph
   content only. *)
let test_routes_shared_across_runs () =
  let circuit = Qcp_circuit.Catalog.phase_estimation 4 in
  List.iter
    (fun (name, router) ->
      let env = fresh_copy Qcp_env.Molecules.trans_crotonic_acid in
      let options =
        { (Options.default ~threshold:100.0) with Options.router; jobs = 0 }
      in
      let first = place_exn options env circuit in
      let second = place_exn options env circuit in
      Alcotest.(check bool) (name ^ ": first run routes") true
        (first.Placer.stats.Placer.route_cache_misses > 0);
      Alcotest.(check int) (name ^ ": second run routes nothing") 0
        second.Placer.stats.Placer.route_cache_misses;
      Alcotest.(check bool) (name ^ ": same runtime") true
        (Placer.runtime first = Placer.runtime second))
    [
      ("bisect", Options.Bisect);
      ("weighted", Options.Bisect_weighted);
      ("token", Options.Token);
      ("odd-even", Options.Odd_even);
    ]

(* Two environments with one fast-edge graph (a 3x3 grid under the
   threshold) but opposite coupling-delay orders.  Weighted routes depend
   on the edge costs, so the registry must keep their tables apart: it
   does, because each environment memoizes its own physical graph.
   Interleaved placements must each equal their own oracle. *)
let test_edge_costs_isolated () =
  let edges = Qcp_graph.Graph.edges (Qcp_graph.Generators.grid 3 3) in
  let env name delay_of =
    Environment.of_couplings ~name
      ~nuclei:(Array.init 9 (Printf.sprintf "q%d"))
      ~single:(Array.make 9 1.0)
      ~couplings:(List.mapi (fun i (u, v) -> (u, v, delay_of i)) edges)
      ()
  in
  let rising = env "rising" (fun i -> float_of_int (10 + (3 * i))) in
  let falling = env "falling" (fun i -> float_of_int (48 - (3 * i))) in
  let options =
    { (Options.default ~threshold:50.0) with
      Options.router = Options.Bisect_weighted; jobs = 0 }
  in
  for seed = 1 to 5 do
    (* Full occupancy: every vertex carries a token, so channel choices
       move real SWAP costs (seeds 1 and 5 diverge if the two
       environments' routes are pooled). *)
    let rng = Qcp_util.Rng.create (3100 + seed) in
    let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n:9 in
    List.iter
      (fun env ->
        check_identical ~seed
          (reference options env circuit)
          (Environment.name env, Placer.place options env circuit))
      [ rising; falling ]
  done

(* A spilled run routes through a private copy of the cross-run table, so
   it leaves nothing behind for a later in-core run to hit: that run
   misses exactly as often as on a never-used environment. *)
let test_spill_leaves_no_routes () =
  let circuit =
    Qcp_circuit.Random_circuit.hidden_stages_custom (Qcp_util.Rng.create 17)
      ~n:6 ~stages:3 ~gates_per_stage:10
  in
  (* The greedy profile routes a few dozen distinct networks, far below
     the table cap, so a leaked spill route would be a certain hit. *)
  let in_core = { (Options.fast ~threshold:50.0) with Options.jobs = 0 } in
  let misses env =
    (place_exn in_core env circuit).Placer.stats.Placer.route_cache_misses
  in
  let spilled_env = Environment.grid 6 6 in
  let spilled =
    place_exn ~spill:Placer.Spill.null in_core spilled_env circuit
  in
  Alcotest.(check bool) "the spilled run routed" true
    (spilled.Placer.stats.Placer.route_cache_misses > 0);
  Alcotest.(check int) "in-core misses unchanged by the spilled run"
    (misses (Environment.grid 6 6))
    (misses spilled_env)

(* One physical graph per distinct fast graph inside an environment:
   histidine's thresholds 50 and 100 admit the same edges, 200 more.  A
   placement at 100 right after one at 50 then finds every route it needs
   in the table the first filled, and still places exactly like the
   oracle.  Equal delay matrices in two environments never share a graph
   (the weighted router's routes read the delays). *)
let test_equal_graphs_interned () =
  let env = fresh_copy Qcp_env.Molecules.histidine in
  let graph threshold = Option.get (Environment.connected_adjacency env ~threshold) in
  let g50 = graph 50.0 and g100 = graph 100.0 and g200 = graph 200.0 in
  Alcotest.(check bool) "50 and 100: one graph" true (g50 == g100);
  Alcotest.(check bool) "200: another graph" true (g200 != g100);
  Alcotest.(check bool) "a repeat returns the same graph" true (graph 100.0 == g50);
  let twin = fresh_copy Qcp_env.Molecules.histidine in
  Alcotest.(check bool) "equal environments share no graph" true
    (Option.get (Environment.connected_adjacency twin ~threshold:50.0) != g50);
  let circuit = Qcp_circuit.Catalog.phase_estimation 4 in
  let options threshold = { (Options.default ~threshold) with Options.jobs = 0 } in
  let first = place_exn (options 50.0) env circuit in
  Alcotest.(check bool) "50 routes" true
    (first.Placer.stats.Placer.route_cache_misses > 0);
  let second = place_exn (options 100.0) env circuit in
  Alcotest.(check int) "100 right after 50 routes nothing" 0
    second.Placer.stats.Placer.route_cache_misses;
  check_identical ~seed:0
    (reference (options 100.0) (fresh_copy Qcp_env.Molecules.histidine) circuit)
    ("histidine/100 after /50", Placer.Placed second)

(* The route table's hit path allocates nothing, and a miss only its
   stored key and the router's entry (a warm-memo bisection route
   allocates only its result).  Measured at the table's cap, where an
   insertion evicts rather than grows. *)
let test_route_table_allocation () =
  let env = fresh_copy Qcp_env.Molecules.histidine in
  let g = Option.get (Environment.connected_adjacency env ~threshold:1000.0) in
  let m = Qcp_graph.Graph.n g in
  let table = Qcp.Score_cache.shared g ~router:Options.Bisect ~leaf_override:true in
  let cache = Qcp.Score_cache.create table in
  let route memo perm = Qcp_route.Bisect_router.route_sequence ?memo g ~perm in
  let rng = Qcp_util.Rng.create 31 in
  let cap = Qcp.Score_cache.route_capacity in
  let perms = Array.init (2 * cap) (fun _ -> Qcp_route.Perm.random rng m) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let query lo hi () =
    for i = lo to hi - 1 do
      ignore (Qcp.Score_cache.route cache ~route perms.(i) : Qcp.Score_cache.route_entry)
    done
  in
  let overhead = words ignore in
  (* Fill to the cap (the memo warms up on the way), then hit. *)
  query 0 cap ();
  let hits = words (query 0 cap) -. overhead in
  Alcotest.(check int) "cap hits" cap (Qcp.Score_cache.hits cache);
  Alcotest.(check int) "a hit allocates nothing" 0 (int_of_float hits);
  (* Misses at the cap: each evicts the oldest entry. *)
  let misses = words (query cap (2 * cap)) -. overhead in
  Alcotest.(check int) "misses" (2 * cap) (Qcp.Score_cache.misses cache);
  let entry_words = ref 0 in
  for i = cap to (2 * cap) - 1 do
    let len = Array.length (route (Some (Qcp_route.Bisect_router.make_memo ())) perms.(i)) in
    entry_words := !entry_words + (if len = 0 then 0 else len + 1) + m + 1
  done;
  Alcotest.(check int) "a miss allocates its entry and key" !entry_words
    (int_of_float misses);
  (* A full turnover of evictions left every newer key reachable. *)
  let h0 = Qcp.Score_cache.hits cache in
  query cap (2 * cap) ();
  Alcotest.(check int) "the newest cap entries hit" cap
    (Qcp.Score_cache.hits cache - h0)

let suite =
  [
    Alcotest.test_case "engine variants identical over 50 seeds" `Quick
      test_engine_identical;
    Alcotest.test_case "annealer restarts identical over 50 seeds" `Quick
      test_annealer_identical;
    Alcotest.test_case "place_batch equals sequential placements" `Quick
      test_place_batch_identical;
    Alcotest.test_case "route cache hits on table3 workload" `Quick
      test_cache_actually_hits;
    Alcotest.test_case "bounded search prunes on table3 workload" `Quick
      test_bounded_actually_prunes;
    Alcotest.test_case "shared route registry evicts FIFO at the cap" `Quick
      test_route_fifo_eviction;
    Alcotest.test_case "every router's routes are shared across runs" `Quick
      test_routes_shared_across_runs;
    Alcotest.test_case "weighted routes isolated per environment" `Quick
      test_edge_costs_isolated;
    Alcotest.test_case "spilled runs leave no shared routes" `Quick
      test_spill_leaves_no_routes;
    Alcotest.test_case "equal fast graphs share one graph and its routes" `Quick
      test_equal_graphs_interned;
    Alcotest.test_case "route table hit allocates nothing" `Quick
      test_route_table_allocation;
  ]
