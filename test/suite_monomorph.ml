(* Property tests pinning the bitset monomorphism engine and the pruned
   Hamiltonian search to the seed implementations they replaced: the new
   engines must produce the same mappings in the same order (respectively
   the same route), because downstream placement decisions are keyed to
   that enumeration order. *)

module Graph = Qcp_graph.Graph
module Monomorph = Qcp_graph.Monomorph
module Hamilton = Qcp_graph.Hamilton
module Gen = Qcp_graph.Generators
module Rng = Qcp_util.Rng

(* ------------------------------------------------------------------ *)
(* Reference enumerator: the seed implementation, kept verbatim.       *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  let ordering pattern =
    let active =
      List.filter (fun v -> Graph.degree pattern v > 0) (Graph.vertices pattern)
    in
    let seen = Array.make (Graph.n pattern) false in
    let order = ref [] in
    let by_degree_desc =
      List.sort
        (fun a b -> compare (Graph.degree pattern b) (Graph.degree pattern a))
        active
    in
    let bfs_from seed =
      let queue = Queue.create () in
      seen.(seed) <- true;
      Queue.add seed queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        order := u :: !order;
        let next =
          Array.to_list (Graph.neighbors pattern u)
          |> List.filter (fun v -> not seen.(v))
          |> List.sort (fun a b ->
                 compare (Graph.degree pattern b) (Graph.degree pattern a))
        in
        List.iter
          (fun v ->
            seen.(v) <- true;
            Queue.add v queue)
          next
      done
    in
    List.iter (fun v -> if not seen.(v) then bfs_from v) by_degree_desc;
    Array.of_list (List.rev !order)

  let compatible pattern target mapping v candidate =
    Graph.degree target candidate >= Graph.degree pattern v
    && Array.for_all
         (fun u ->
           let image = mapping.(u) in
           image < 0 || Graph.mem_edge target image candidate)
         (Graph.neighbors pattern v)

  let enumerate ?(limit = 100) ~pattern ~target () =
    if limit <= 0 then []
    else begin
      let order = ordering pattern in
      let np = Graph.n pattern in
      let nt = Graph.n target in
      let mapping = Array.make np (-1) in
      let used = Array.make nt false in
      let results = ref [] in
      let count = ref 0 in
      let rec extend step =
        if !count >= limit then ()
        else if step >= Array.length order then begin
          results := Array.copy mapping :: !results;
          incr count
        end
        else begin
          let v = order.(step) in
          let candidates =
            let mapped_neighbor =
              Array.fold_left
                (fun acc u -> if acc >= 0 then acc else mapping.(u))
                (-1) (Graph.neighbors pattern v)
            in
            if mapped_neighbor >= 0 then Graph.neighbors target mapped_neighbor
            else Array.init nt (fun i -> i)
          in
          Array.iter
            (fun c ->
              if
                !count < limit && (not used.(c))
                && compatible pattern target mapping v c
              then begin
                mapping.(v) <- c;
                used.(c) <- true;
                extend (step + 1);
                used.(c) <- false;
                mapping.(v) <- -1
              end)
            candidates
        end
      in
      if Graph.max_degree pattern > Graph.max_degree target then []
      else begin
        extend 0;
        List.rev !results
      end
    end

  (* Seed Hamiltonian search: plain backtracking, no pruning. *)
  let hamilton g ~closed =
    let size = Graph.n g in
    if size = 0 then None
    else if size = 1 then Some [ 0 ]
    else if
      closed
      && List.exists (fun v -> Graph.degree g v < 2) (Graph.vertices g)
    then None
    else begin
      let visited = Array.make size false in
      let route = ref [] in
      let start =
        let best = ref 0 in
        List.iter
          (fun v -> if Graph.degree g v < Graph.degree g !best then best := v)
          (Graph.vertices g);
        !best
      in
      let rec extend v depth =
        visited.(v) <- true;
        route := v :: !route;
        let ok =
          if depth = size then (not closed) || Graph.mem_edge g v start
          else
            Array.exists
              (fun w -> (not visited.(w)) && extend w (depth + 1))
              (Graph.neighbors g v)
        in
        if not ok then begin
          visited.(v) <- false;
          route := List.tl !route
        end;
        ok
      in
      if extend start 1 then Some (List.rev !route) else None
    end

  (* Incremental existence search with candidate sets built by intersecting
     target neighbor masks, kept verbatim apart from three probes: the node
     count and budget cut-off of the last query (the production search
     must walk the same DFS tree: same answers, same witnesses, same node
     count, same cut-off), and a running count of seed steps that move on
     to a second candidate, so tests can show they exercised
     backtracking at component seeds. *)
  module Incremental = struct
    let by_degree_desc degree a b =
      match Int.compare (degree b) (degree a) with
      | 0 -> Int.compare a b
      | c -> c

    type t = {
      qubits : int;
      target : Graph.t;
      nt : int;
      deg_t : int array;
      max_deg_t : int;
      pmask : int array array; (* pattern adjacency bitsets, over qubits *)
      pdeg : int array;
      (* per-query scratch, allocated once *)
      mapping : int array;
      used : int array;
      cand : int array array;
      order : int array;
      seen : bool array;
      mutable nodes : int;
      mutable exhausted : bool;
      mutable seed_retries : int;
    }

    let create ~qubits ~target =
      {
        qubits;
        target;
        nt = Graph.n target;
        deg_t = Array.init (Graph.n target) (Graph.degree target);
        max_deg_t = Graph.max_degree target;
        pmask = Array.init qubits (fun _ -> Graph.mask_make qubits);
        pdeg = Array.make qubits 0;
        mapping = Array.make qubits (-1);
        used = Graph.mask_make (Graph.n target);
        cand = Array.init (max 1 qubits) (fun _ -> Graph.mask_make (Graph.n target));
        order = Array.make (max 1 qubits) 0;
        seen = Array.make qubits false;
        nodes = 0;
        exhausted = false;
        seed_retries = 0;
      }

    let reset inc =
      Array.iter (fun m -> Array.fill m 0 (Array.length m) 0) inc.pmask;
      Array.fill inc.pdeg 0 inc.qubits 0

    let mem inc a b = Graph.mask_mem inc.pmask.(a) b

    let add inc (a, b) =
      if a <> b && not (mem inc a b) then begin
        Graph.mask_set inc.pmask.(a) b;
        Graph.mask_set inc.pmask.(b) a;
        inc.pdeg.(a) <- inc.pdeg.(a) + 1;
        inc.pdeg.(b) <- inc.pdeg.(b) + 1
      end

    let remove inc (a, b) =
      if a <> b && mem inc a b then begin
        Graph.mask_clear inc.pmask.(a) b;
        Graph.mask_clear inc.pmask.(b) a;
        inc.pdeg.(a) <- inc.pdeg.(a) - 1;
        inc.pdeg.(b) <- inc.pdeg.(b) - 1
      end

    let build_order inc =
      let len = ref 0 in
      Array.fill inc.seen 0 inc.qubits false;
      let cmp = by_degree_desc (fun q -> inc.pdeg.(q)) in
      let seeds = ref [] in
      for q = inc.qubits - 1 downto 0 do
        if inc.pdeg.(q) > 0 then seeds := q :: !seeds
      done;
      let seeds = Array.of_list !seeds in
      Array.sort cmp seeds;
      let queue = Queue.create () in
      Array.iter
        (fun seed ->
          if not inc.seen.(seed) then begin
            inc.seen.(seed) <- true;
            Queue.add seed queue;
            while not (Queue.is_empty queue) do
              let u = Queue.pop queue in
              inc.order.(!len) <- u;
              incr len;
              Graph.iter_mask
                (fun v ->
                  if not inc.seen.(v) then begin
                    inc.seen.(v) <- true;
                    Queue.add v queue
                  end)
                inc.pmask.(u)
            done
          end)
        seeds;
      !len

    exception Found

    exception Exhausted

    let search ?budget inc =
      let budget = match budget with None -> max_int | Some b -> b in
      inc.nodes <- 0;
      inc.exhausted <- false;
      let order_len = build_order inc in
      (* Quick refutations: an active qubit needs a target vertex of at least
         its degree; active qubits need distinct target vertices. *)
      let feasible = ref (order_len <= inc.nt) in
      for i = 0 to order_len - 1 do
        if inc.pdeg.(inc.order.(i)) > inc.max_deg_t then feasible := false
      done;
      if not !feasible then None
      else begin
        Array.fill inc.mapping 0 inc.qubits (-1);
        Array.fill inc.used 0 (Array.length inc.used) 0;
        let witness = ref None in
        let nodes = ref 0 in
        let rec extend step =
          if step >= order_len then begin
            witness := Some (Array.copy inc.mapping);
            raise Found
          end
          else begin
            let v = inc.order.(step) in
            let try_candidate c =
              incr nodes;
              if !nodes > budget then raise Exhausted;
              inc.mapping.(v) <- c;
              Graph.mask_set inc.used c;
              extend (step + 1);
              Graph.mask_clear inc.used c;
              inc.mapping.(v) <- -1
            in
            let deg_ok c = inc.deg_t.(c) >= inc.pdeg.(v) in
            let mask = inc.cand.(step) in
            let constrained = ref false in
            Graph.iter_mask
              (fun u ->
                let image = inc.mapping.(u) in
                if image >= 0 then begin
                  let nm = Graph.neighbor_mask inc.target image in
                  if !constrained then Graph.mask_inter_into ~into:mask nm
                  else begin
                    Array.blit nm 0 mask 0 (Array.length nm);
                    constrained := true
                  end
                end)
              inc.pmask.(v);
            if !constrained then begin
              Graph.mask_diff_into ~into:mask inc.used;
              Graph.iter_mask (fun c -> if deg_ok c then try_candidate c) mask
            end
            else begin
              let tried = ref false in
              for c = 0 to inc.nt - 1 do
                if (not (Graph.mask_mem inc.used c)) && deg_ok c then begin
                  if !tried then inc.seed_retries <- inc.seed_retries + 1;
                  tried := true;
                  try_candidate c
                end
              done
            end
          end
        in
        (try extend 0 with
        | Found -> ()
        | Exhausted -> inc.exhausted <- true);
        inc.nodes <- Int.min !nodes budget;
        !witness
      end

    let embeds_with ?budget inc ((a, b) as pair) =
      let fresh = not (mem inc a b) in
      if fresh then add inc pair;
      let result = search ?budget inc in
      if fresh then remove inc pair;
      result
  end
end

(* ------------------------------------------------------------------ *)
(* Random instances                                                    *)
(* ------------------------------------------------------------------ *)

let random_graph rng n ~edge_chance =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng 1.0 < edge_chance then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges n !edges

(* A pattern over the same vertex budget, sparse enough to be embeddable
   reasonably often: either a random sparse graph or a random path. *)
let random_pattern rng np =
  if Rng.bool rng then random_graph rng np ~edge_chance:0.3
  else begin
    let perm = Rng.permutation rng np in
    let edges = ref [] in
    for i = 0 to np - 2 do
      if Rng.float rng 1.0 < 0.8 then edges := (perm.(i), perm.(i + 1)) :: !edges
    done;
    Graph.of_edges np !edges
  end

let mapping_list = Alcotest.(list (array int))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_enumerate_matches_reference () =
  for seed = 0 to 49 do
    let rng = Rng.create (1000 + seed) in
    let nt = 4 + Rng.int rng 8 in
    let target = random_graph rng nt ~edge_chance:(0.2 +. Rng.float rng 0.4) in
    let np = 2 + Rng.int rng 5 in
    let pattern = random_pattern rng np in
    List.iter
      (fun limit ->
        let expected = Reference.enumerate ~limit ~pattern ~target () in
        let actual = Monomorph.enumerate ~limit ~pattern ~target () in
        Alcotest.check mapping_list
          (Printf.sprintf "seed %d limit %d" seed limit)
          expected actual)
      [ 1; 3; 100 ]
  done

let test_enumerate_matches_reference_multiword () =
  (* Targets above 63 vertices: adjacency tests read two-word masks. *)
  for seed = 0 to 9 do
    let rng = Rng.create (2000 + seed) in
    let nt = 64 + Rng.int rng 16 in
    let target = random_graph rng nt ~edge_chance:0.05 in
    let pattern = random_pattern rng (2 + Rng.int rng 4) in
    List.iter
      (fun limit ->
        let expected = Reference.enumerate ~limit ~pattern ~target () in
        let actual = Monomorph.enumerate ~limit ~pattern ~target () in
        Alcotest.check mapping_list
          (Printf.sprintf "seed %d limit %d" seed limit)
          expected actual)
      [ 1; 7; 100 ]
  done

let test_parallel_matches_sequential () =
  for seed = 0 to 19 do
    let rng = Rng.create (3000 + seed) in
    let nt = 5 + Rng.int rng 7 in
    let target = random_graph rng nt ~edge_chance:(0.3 +. Rng.float rng 0.3) in
    let pattern = random_pattern rng (2 + Rng.int rng 4) in
    List.iter
      (fun limit ->
        let sequential = Monomorph.enumerate ~limit ~pattern ~target () in
        List.iter
          (fun jobs ->
            let parallel =
              Monomorph.enumerate ~limit ~jobs ~pattern ~target ()
            in
            Alcotest.check mapping_list
              (Printf.sprintf "seed %d limit %d jobs %d" seed limit jobs)
              sequential parallel)
          [ 2; 3 ])
      [ 2; 100 ]
  done

(* ------------------------------------------------------------------ *)
(* Multi-component patterns: the packing refutation's ground           *)
(* ------------------------------------------------------------------ *)

(* Disjoint components over one vertex range, relabeled by a random
   permutation (the search order depends on the labels), plus [isolated]
   vertices of degree zero. *)
let forest rng ?(isolated = 0) components =
  let sizes = List.map Graph.n components in
  let np = List.fold_left ( + ) isolated sizes in
  let perm = Rng.permutation rng np in
  let edges, _ =
    List.fold_left
      (fun (acc, base) g ->
        ( List.map (fun (u, v) -> (perm.(base + u), perm.(base + v))) (Graph.edges g)
          @ acc,
          base + Graph.n g ))
      ([], 0) components
  in
  Graph.of_edges np edges

(* [g] without every [gap]-th vertex: a chain falls apart into runs of
   [gap - 1], a row-major grid [gap] wide loses its last column. *)
let cut_target g ~gap =
  fst
    (Graph.induced g
       (List.filter (fun v -> v mod gap <> gap - 1) (Graph.vertices g)))

let forest_cases () =
  let rng = Rng.create 8100 in
  let paths lens = forest rng (List.map Gen.path_graph lens) in
  let random_trees sizes =
    forest rng (List.map (fun k -> Gen.random_tree rng k) sizes)
  in
  let heavy_hex = Gen.heavy_hex ~rows:3 ~cols:9 in
  [
    (* Tight fits: the components fill the target or nearly. *)
    ("chain-12 paths 6+6", Gen.path_graph 12, paths [ 6; 6 ]);
    ("chain-12 paths 7+4", Gen.path_graph 12, paths [ 7; 4 ]);
    ("chain-14 paths 5+5+3", Gen.path_graph 14, paths [ 5; 5; 3 ]);
    ("chain-9 path 9", Gen.path_graph 9, paths [ 9 ]);
    ("chain-10 paths 6+5", Gen.path_graph 10, paths [ 6; 5 ]);
    ("chain-16 paths 2x4 + isolated",
      Gen.path_graph 16,
      forest rng ~isolated:2 [ Gen.path_graph 4; Gen.path_graph 4 ]);
    ("cycle-12 paths 5+6", Gen.cycle_graph 12, paths [ 5; 6 ]);
    ("grid-3x4 paths 5+4+2", Gen.grid 3 4, paths [ 5; 4; 2 ]);
    ("grid-3x4 paths 6+6", Gen.grid 3 4, paths [ 6; 6 ]);
    ("grid-3x4 trees 5+4", Gen.grid 3 4, random_trees [ 5; 4 ]);
    ("grid-3x3 cycle 4 + path 5", Gen.grid 3 3,
      forest rng [ Gen.cycle_graph 4; Gen.path_graph 5 ]);
    ("grid-3x4 cycle 4 + paths 3+3", Gen.grid 3 4,
      forest rng [ Gen.cycle_graph 4; Gen.path_graph 3; Gen.path_graph 3 ]);
    ("grid-3x4 cycles 4+4", Gen.grid 3 4,
      forest rng [ Gen.cycle_graph 4; Gen.cycle_graph 4 ]);
    ("heavy-hex trees 6+4", heavy_hex, random_trees [ 6; 4 ]);
    ("heavy-hex cycle 12 + path 3", heavy_hex,
      forest rng [ Gen.cycle_graph 12; Gen.path_graph 3 ]);
    ("heavy-hex paths 12+10", heavy_hex, paths [ 12; 10 ]);
    (* Disconnected targets: free regions exist before anything is placed. *)
    ("cut chain-15 paths 4+4", cut_target (Gen.path_graph 15) ~gap:5, paths [ 4; 4 ]);
    ("cut chain-15 paths 4+4+4", cut_target (Gen.path_graph 15) ~gap:5,
      paths [ 4; 4; 4 ]);
    ("cut chain-15 paths 5+2", cut_target (Gen.path_graph 15) ~gap:5, paths [ 5; 2 ]);
    ("cut grid-4x5 trees 4+3", cut_target (Gen.grid 4 5) ~gap:5, random_trees [ 4; 3 ]);
    ("cut grid-4x5 cycle 4 + path 4", cut_target (Gen.grid 4 5) ~gap:5,
      forest rng [ Gen.cycle_graph 4; Gen.path_graph 4 ]);
    (* Over 63 vertices: two-word neighbor masks. *)
    ("chain-70 paths 36+34", Gen.path_graph 70, paths [ 36; 34 ]);
    ("chain-70 paths 30+20+19", Gen.path_graph 70, paths [ 30; 20; 19 ]);
    ("cycle-72 paths 40+30", Gen.cycle_graph 72, paths [ 40; 30 ]);
  ]

(* The capped enumeration from the reference: its unbounded list [all] kept to
   mappings whose first-ordered vertex lands on a kept first image, cut to
   [limit].  The kept images are the [cap] degree- and signature-compatible
   targets closest in degree to that vertex, ties toward the smallest. *)
let reference_capped ~all ~limit ~cap ~pattern ~target =
  let order = Reference.ordering pattern in
  if Array.length order = 0 then Qcp_util.Listx.take limit all
  else begin
    let v0 = order.(0) in
    let sig_p = (Graph.neighbor_degrees pattern).(v0)
    and sig_t = Graph.neighbor_degrees target in
    let dp = Graph.degree pattern v0 in
    let firsts =
      List.filter
        (fun c ->
          Graph.degree target c >= dp
          && Array.for_all2 (fun p t -> p <= t) sig_p
               (Array.sub sig_t.(c) 0 (Array.length sig_p)))
        (Graph.vertices target)
    in
    let kept =
      List.map (fun c -> (abs (Graph.degree target c - dp), c)) firsts
      |> List.sort compare |> Qcp_util.Listx.take cap |> List.map snd
    in
    List.filter (fun m -> List.mem m.(v0) kept) all |> Qcp_util.Listx.take limit
  end

let limit_label limit = if limit = max_int then "unbounded" else string_of_int limit

let test_forests_match_reference () =
  List.iter
    (fun (name, target, pattern) ->
      let all = Reference.enumerate ~limit:max_int ~pattern ~target () in
      List.iter
        (fun limit ->
          let expected = Reference.enumerate ~limit ~pattern ~target () in
          List.iter
            (fun jobs ->
              Alcotest.check mapping_list
                (Printf.sprintf "%s limit %s jobs %d" name (limit_label limit) jobs)
                expected
                (Monomorph.enumerate ~limit ~jobs ~pattern ~target ()))
            [ 1; 2 ];
          List.iter
            (fun cap ->
              let expected = reference_capped ~all ~limit ~cap ~pattern ~target in
              List.iter
                (fun jobs ->
                  Alcotest.check mapping_list
                    (Printf.sprintf "%s limit %s root_cap %d jobs %d" name
                       (limit_label limit) cap jobs)
                    expected
                    (Monomorph.enumerate ~limit ~jobs ~root_cap:cap ~pattern
                       ~target ()))
                [ 1; 2 ])
            [ 1; 2; 3; 8 ])
        [ 1; 8; 100; max_int ])
    (forest_cases ())

(* A slot budget only ever cuts the capped list: whatever it keeps is a
   prefix of the unbudgeted capped list, the same at any jobs. *)
let test_slot_budget_prefix () =
  let rec is_prefix l full =
    match (l, full) with
    | [], _ -> true
    | x :: l, y :: full -> x = y && is_prefix l full
    | _ :: _, [] -> false
  in
  let cut = ref 0 in
  List.iter
    (fun (name, target, pattern) ->
      List.iter
        (fun cap ->
          let capped =
            Monomorph.enumerate ~limit:max_int ~root_cap:cap ~pattern ~target ()
          in
          List.iter
            (fun slot_budget ->
              let label jobs =
                Printf.sprintf "%s root_cap %d slot budget %d jobs %d" name cap
                  slot_budget jobs
              in
              List.iter
                (fun jobs ->
                  let budgeted =
                    Monomorph.enumerate ~limit:max_int ~jobs ~root_cap:cap
                      ~slot_budget ~pattern ~target ()
                  in
                  if jobs = 1 && List.length budgeted < List.length capped then
                    incr cut;
                  Alcotest.(check bool) (label jobs) true
                    (is_prefix budgeted capped))
                [ 1; 2 ])
            [ 0; 1; 4; 16; 64; 1_000 ])
        [ 1; 3; 8 ])
    (forest_cases ());
  Alcotest.(check bool) "some budgets cut the list" true (!cut > 0)

let monomorph_nodes f =
  let counter =
    Qcp_obs.Metrics.counter Qcp_obs.Metrics.global "monomorph.nodes"
  in
  let armed = Qcp_obs.Metrics.enabled () in
  Qcp_obs.Metrics.set_enabled true;
  let before = Qcp_obs.Metrics.count counter in
  let result =
    Fun.protect ~finally:(fun () -> Qcp_obs.Metrics.set_enabled armed) f
  in
  (result, Qcp_obs.Metrics.count counter - before)

(* The search allocates its results and nothing per node: between a
   one-result and a 2,000-result run of the same search on a multi-word
   target, the allocation grows by exactly the extra results -- the
   mapping copy (np + 1 words), its cons cell and the cell of the reversed
   list (3 words each) -- however many nodes lie between them. *)
let test_enumerate_allocation () =
  let target = Gen.grid 8 9 in
  let pattern = forest (Rng.create 8200) [ Gen.path_graph 6; Gen.path_graph 5 ] in
  let words limit =
    let before = Gc.minor_words () in
    let results = Monomorph.enumerate ~limit ~pattern ~target () in
    let words = int_of_float (Gc.minor_words () -. before) in
    Alcotest.(check int) (Printf.sprintf "limit %d results" limit) limit
      (List.length results);
    words
  in
  let nodes limit =
    snd (monomorph_nodes (fun () -> Monomorph.enumerate ~limit ~pattern ~target ()))
  in
  let apart = nodes 2_000 - nodes 1 in
  Alcotest.(check bool) (Printf.sprintf "%d nodes apart" apart) true (apart > 1_000);
  let one = words 1 and many = words 2_000 in
  Alcotest.(check int) "words beyond the first result"
    (1_999 * (Graph.n pattern + 7))
    (many - one)

(* Table 4's N = 128 chain, as the report places it.  Its stages' patterns
   are paths that nearly fill the chain; without the packing refutation
   the search placed each path at every offset before finding no room for
   the next one (404,536 nodes).  The runtime pins the placement. *)
let test_chain128_nodes () =
  let n = 128 in
  let circuit, _ =
    Qcp_circuit.Random_circuit.hidden_stages (Rng.create (2007 + n)) ~n
  in
  let options = { (Qcp.Options.fast ~threshold:50.0) with Qcp.Options.jobs = 0 } in
  let packing =
    Qcp_obs.Metrics.counter Qcp_obs.Metrics.global "monomorph.refuted.packing"
  in
  let refuted_before = Qcp_obs.Metrics.count packing in
  let outcome, nodes =
    monomorph_nodes (fun () ->
        Qcp.Placer.place options (Qcp_env.Environment.chain n) circuit)
  in
  match outcome with
  | Qcp.Placer.Placed p ->
    Alcotest.(check (float 0.0)) "runtime units" 26_550.0 (Qcp.Placer.runtime p);
    Alcotest.(check bool)
      (Printf.sprintf "%d monomorph.nodes <= 20000" nodes)
      true (nodes <= 20_000);
    Alcotest.(check bool) "monomorph.refuted.packing counts the rule" true
      (Qcp_obs.Metrics.count packing > refuted_before)
  | Qcp.Placer.Unplaceable msg -> Alcotest.fail msg

let hamilton_fixtures () =
  [
    ("cycle-5", Gen.cycle_graph 5);
    ("cycle-8", Gen.cycle_graph 8);
    ("complete-5", Gen.complete 5);
    ("path-6", Gen.path_graph 6);
    ("star-6", Gen.star 6);
    ("petersen", Gen.petersen ());
    ("grid-2x3", Gen.grid 2 3);
    ("grid-3x3", Gen.grid 3 3);
    ("binary-tree-7", Gen.binary_tree 7);
  ]

let test_hamilton_matches_reference () =
  let route = Alcotest.(option (list int)) in
  List.iter
    (fun (name, g) ->
      Alcotest.check route (name ^ " cycle")
        (Reference.hamilton g ~closed:true)
        (Hamilton.cycle g);
      Alcotest.check route (name ^ " path")
        (Reference.hamilton g ~closed:false)
        (Hamilton.path g))
    (hamilton_fixtures ());
  for seed = 0 to 29 do
    let rng = Rng.create (4000 + seed) in
    let n = 3 + Rng.int rng 6 in
    let g = random_graph rng n ~edge_chance:(0.2 +. Rng.float rng 0.5) in
    Alcotest.check route
      (Printf.sprintf "seed %d cycle" seed)
      (Reference.hamilton g ~closed:true)
      (Hamilton.cycle g);
    Alcotest.check route
      (Printf.sprintf "seed %d path" seed)
      (Reference.hamilton g ~closed:false)
      (Hamilton.path g)
  done

let test_incremental_matches_oracle () =
  for seed = 0 to 29 do
    let rng = Rng.create (5000 + seed) in
    let nt = 4 + Rng.int rng 6 in
    let target = random_graph rng nt ~edge_chance:(0.3 +. Rng.float rng 0.4) in
    let qubits = 3 + Rng.int rng 5 in
    let inc = Monomorph.Incremental.create ~qubits ~target in
    let admitted = ref [] in
    for step = 0 to 14 do
      let a = Rng.int rng qubits and b = Rng.int rng qubits in
      if a <> b then begin
        let pair = (min a b, max a b) in
        let pattern = Graph.of_edges qubits (pair :: !admitted) in
        let expected = Monomorph.exists ~pattern ~target in
        let witness = Monomorph.Incremental.embeds_with inc pair in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d step %d answer" seed step)
          expected (witness <> None);
        (match witness with
        | Some m ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d step %d witness valid" seed step)
            true
            (Monomorph.check ~pattern ~target m)
        | None -> ());
        (* Grow the pattern when the pair fits, as the workspace does. *)
        if expected && not (List.mem pair !admitted) then begin
          Monomorph.Incremental.add inc pair;
          admitted := pair :: !admitted
        end
      end
    done;
    (* After a reset the engine accepts a fresh sequence. *)
    Monomorph.Incremental.reset inc;
    let pair = (0, 1) in
    let expected =
      Monomorph.exists ~pattern:(Graph.of_edges qubits [ pair ]) ~target
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d post-reset" seed)
      expected
      (Monomorph.Incremental.embeds_with inc pair <> None)
  done

(* One query against both incremental searches: the identical
   [int array option] (the same answer and the same first witness), the
   same node count and the same budget cut-off.  The production query is
   bracketed by [Gc.minor_words] (unboxed, so the probe itself allocates
   nothing): it may allocate its witness -- the array and its [Some] --
   and not one word more. *)
let query_both ~label ?budget inc reference pair =
  let expected = Reference.Incremental.embeds_with ?budget reference pair in
  let before = Gc.minor_words () in
  let actual = Monomorph.Incremental.embeds_with ?budget inc pair in
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check (option (array int))) label expected actual;
  Alcotest.(check int) (label ^ " nodes") reference.Reference.Incremental.nodes
    (Monomorph.Incremental.last_nodes inc);
  Alcotest.(check bool) (label ^ " cut off")
    reference.Reference.Incremental.exhausted
    (Monomorph.Incremental.last_exhausted inc);
  Alcotest.(check int) (label ^ " words allocated")
    (match actual with None -> 0 | Some w -> Array.length w + 3)
    words;
  actual

let budget_label = function None -> "unbounded" | Some b -> string_of_int b

(* Near-spanning patterns on the scale grid, queried first so a search
   that breaks the tree fails here before any unbounded query runs.  A
   256-qubit pattern grows from a hidden-stage circuit the way the splitter
   grows a stage -- a new pair is committed when its 10 000-node query
   embeds it -- to 234 pairs, the size of a median refused stage pattern
   on the scale grid: over 200 active qubits in several components.
   These are the queries stage formation spends its time on: budget
   cut-offs and component seeds that backtrack. *)
let near_spanning () =
  let target = Gen.grid 16 16 in
  let qubits = 256 in
  let inc = Monomorph.Incremental.create ~qubits ~target in
  let reference = Reference.Incremental.create ~qubits ~target in
  let circuit =
    Qcp_circuit.Random_circuit.hidden_stages_custom (Rng.create 4242) ~n:qubits
      ~stages:4 ~gates_per_stage:6400
  in
  let pairs =
    List.filter_map
      (fun g ->
        match Qcp_circuit.Gate.qubits g with
        | [ a; b ] -> Some (Int.min a b, Int.max a b)
        | _ -> None)
      (Qcp_circuit.Circuit.gates circuit)
  in
  let top = Some 10_000 in
  let admitted = ref [] and exhausted = ref 0 in
  let rec grow step = function
    | [] -> Alcotest.fail "circuit ran out before the pattern grew"
    | pair :: rest ->
      if List.length !admitted >= 234 then step
      else if List.mem pair !admitted then grow step rest
      else begin
        let answers =
          List.map
            (fun budget ->
              let answer =
                query_both
                  ~label:
                    (Printf.sprintf "grid-16x16 step %d budget %s" step
                       (budget_label budget))
                  ?budget inc reference pair
              in
              if budget = top && Monomorph.Incremental.last_exhausted inc then
                incr exhausted;
              answer)
            [ Some 50; top ]
        in
        if List.nth answers 1 <> None then begin
          Monomorph.Incremental.add inc pair;
          Reference.Incremental.add reference pair;
          admitted := pair :: !admitted
        end;
        grow (step + 1) rest
      end
  in
  let steps = grow 0 pairs in
  let pattern = Graph.of_edges qubits !admitted in
  let active =
    List.filter (fun q -> Graph.degree pattern q > 0) (Graph.vertices pattern)
  in
  let comp, _ = Qcp_graph.Paths.components pattern in
  let components =
    List.length (List.sort_uniq Int.compare (List.map (fun q -> comp.(q)) active))
  in
  Alcotest.(check bool)
    (Printf.sprintf "grew to %d active qubits in %d components over %d queries"
       (List.length active) components steps)
    true
    (List.length active >= 200 && components >= 2);
  Alcotest.(check bool) "some 10 000-node queries are cut off" true
    (!exhausted > 0);
  Alcotest.(check bool) "some component seeds backtrack" true
    (reference.Reference.Incremental.seed_retries > 0)

(* Seeded add/query sequences on small targets: every query at every
   budget must agree with the reference, and some 50-node queries must run
   out of budget where the top budget answers, so the cut-off itself is
   compared (budgets 0 and 1 cut off every query that needs a node).  The
   top budget is unbounded on the small targets; on the 64-vertex grid,
   whose masks span two words, it is the splitter's 10 000 nodes. *)
let test_incremental_matches_reference () =
  near_spanning ();
  let exhausted = ref 0 in
  let targets =
    [
      ("grid-4x4", Gen.grid 4 4, None);
      ("grid-3x5", Gen.grid 3 5, None);
      ("heavy-hex", Gen.heavy_hex ~rows:3 ~cols:5, None);
      ("cycle-10", Gen.cycle_graph 10, None);
      ("cycle-14", Gen.cycle_graph 14, None);
      ("random-12", random_graph (Rng.create 7001) 12 ~edge_chance:0.3, None);
      ("random-14", random_graph (Rng.create 7002) 14 ~edge_chance:0.2, None);
      ("grid-8x8", Gen.grid 8 8, Some 10_000);
    ]
  in
  List.iteri
    (fun ti (name, target, top) ->
      let budgets = [ Some 0; Some 1; Some 50; top ] in
      for seed = 0 to 4 do
        let rng = Rng.create (7100 + (10 * ti) + seed) in
        let qubits = Int.min 12 (Graph.n target) in
        let inc = Monomorph.Incremental.create ~qubits ~target in
        let reference = Reference.Incremental.create ~qubits ~target in
        let query step pair =
          List.map
            (fun budget ->
              query_both
                ~label:
                  (Printf.sprintf "%s seed %d step %d budget %s" name seed step
                     (budget_label budget))
                ?budget inc reference pair)
            budgets
        in
        for step = 0 to 39 do
          let a = Rng.int rng qubits and b = Rng.int rng qubits in
          if a <> b then begin
            let answers = query step (a, b) in
            if List.nth answers 3 <> None then begin
              if List.nth answers 2 = None then incr exhausted;
              Monomorph.Incremental.add inc (a, b);
              Reference.Incremental.add reference (a, b)
            end
          end
        done;
        Monomorph.Incremental.reset inc;
        Reference.Incremental.reset reference;
        ignore (query 40 (0, 1) : int array option list)
      done)
    targets;
  Alcotest.(check bool) "some bounded queries exhaust" true (!exhausted > 0)

let test_degree_suffix () =
  for seed = 0 to 9 do
    let rng = Rng.create (6000 + seed) in
    let n = 2 + Rng.int rng 10 in
    let g = random_graph rng n ~edge_chance:(Rng.float rng 1.0) in
    let s = Graph.degree_suffix g in
    Alcotest.(check int)
      (Printf.sprintf "seed %d length" seed)
      (Graph.max_degree g + 2)
      (Array.length s);
    Array.iteri
      (fun d count ->
        let expected =
          List.length
            (List.filter (fun v -> Graph.degree g v >= d) (Graph.vertices g))
        in
        Alcotest.(check int) (Printf.sprintf "seed %d suffix %d" seed d)
          expected count)
      s
  done

let suite =
  [
    Alcotest.test_case "enumerate matches seed enumerator" `Quick
      test_enumerate_matches_reference;
    Alcotest.test_case "enumerate matches on multi-word targets" `Quick
      test_enumerate_matches_reference_multiword;
    Alcotest.test_case "parallel enumeration matches sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "multi-component patterns match the seed enumerator"
      `Quick test_forests_match_reference;
    Alcotest.test_case "budgeted slots are prefixes" `Quick
      test_slot_budget_prefix;
    Alcotest.test_case "enumerate allocates only its results" `Quick
      test_enumerate_allocation;
    Alcotest.test_case "table 4 chain128 node pin" `Quick test_chain128_nodes;
    Alcotest.test_case "hamilton pruning matches seed search" `Quick
      test_hamilton_matches_reference;
    Alcotest.test_case "incremental oracle matches enumerator" `Quick
      test_incremental_matches_oracle;
    Alcotest.test_case "incremental search walks the reference tree" `Quick
      test_incremental_matches_reference;
    Alcotest.test_case "degree suffix counts" `Quick test_degree_suffix;
  ]
