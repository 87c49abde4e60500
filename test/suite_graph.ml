(* Tests for qcp_graph: core graph operations, traversal, separators,
   monomorphism and Hamiltonian search. *)

module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths
module Separator = Qcp_graph.Separator
module Monomorph = Qcp_graph.Monomorph
module Hamilton = Qcp_graph.Hamilton
module Gen = Qcp_graph.Generators

let test_of_edges_basic () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 0); (2, 3); (1, 1) ] in
  Alcotest.(check int) "dedup + self-loop drop" 2 (Graph.edge_count g);
  Alcotest.(check bool) "mem 0-1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "mem 1-0 symmetric" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "no 0-2" false (Graph.mem_edge g 0 2);
  Alcotest.(check int) "degree" 1 (Graph.degree g 0)

let test_of_edges_out_of_range () =
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Graph: vertex 5 out of range [0,3)") (fun () ->
      ignore (Graph.of_edges 3 [ (0, 5) ]))

let test_induced () =
  let g = Gen.cycle_graph 5 in
  let sub, back = Graph.induced g [ 0; 1; 2 ] in
  Alcotest.(check int) "sub vertices" 3 (Graph.n sub);
  Alcotest.(check int) "sub edges" 2 (Graph.edge_count sub);
  Alcotest.(check (array int)) "back map" [| 0; 1; 2 |] back

let test_leaves () =
  Alcotest.(check (list int)) "path leaves" [ 0; 4 ] (Graph.leaves (Gen.path_graph 5));
  Alcotest.(check (list int)) "cycle leaves" [] (Graph.leaves (Gen.cycle_graph 5))

let test_bfs_dist () =
  let g = Gen.path_graph 5 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] (Paths.bfs_dist g 0);
  let g2 = Graph.of_edges 4 [ (0, 1) ] in
  Alcotest.(check int) "unreachable" (-1) (Paths.bfs_dist g2 0).(3)

let test_bfs_restricted () =
  let g = Gen.cycle_graph 6 in
  (* Block vertex 1: distance to 2 must go the long way around. *)
  let dist = Paths.bfs_dist ~restrict:(fun v -> v <> 1) g 0 in
  Alcotest.(check int) "detour" 4 dist.(2)

let test_shortest_path () =
  let g = Gen.grid 3 3 in
  match Paths.shortest_path g 0 8 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
    Alcotest.(check int) "path length" 5 (List.length p);
    Alcotest.(check int) "starts at src" 0 (List.hd p)

(* All-pairs Dijkstra against Floyd-Warshall on random connected graphs
   with random integer edge costs (exact in floating point, so the two
   must agree bit for bit), plus the unreachable and negative-cost cases. *)
let test_all_pairs_weighted () =
  for seed = 1 to 30 do
    let rng = Qcp_util.Rng.create seed in
    let n = 2 + Qcp_util.Rng.int rng 12 in
    let g = Gen.random_connected rng ~n ~extra_edges:(Qcp_util.Rng.int rng 6) in
    let w = Array.init n (fun _ -> Array.make n 0.0) in
    List.iter
      (fun (u, v) ->
        let c = float_of_int (1 + Qcp_util.Rng.int rng 20) in
        w.(u).(v) <- c;
        w.(v).(u) <- c)
      (Graph.edges g);
    let fw =
      Array.init n (fun u ->
          Array.init n (fun v ->
              if u = v then 0.0 else if Graph.mem_edge g u v then w.(u).(v) else infinity))
    in
    for k = 0 to n - 1 do
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          fw.(u).(v) <- Float.min fw.(u).(v) (fw.(u).(k) +. fw.(k).(v))
        done
      done
    done;
    let got = Paths.all_pairs_weighted ~cost:(fun u v -> w.(u).(v)) g in
    Array.iteri
      (fun u row ->
        Alcotest.(check (array (float 0.0))) (Printf.sprintf "seed %d row %d" seed u) row got.(u))
      fw
  done;
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let d = Paths.all_pairs_weighted ~cost:(fun _ _ -> 2.5) g in
  Alcotest.(check (float 0.0)) "one edge" 2.5 d.(1).(0);
  Alcotest.(check bool) "unreachable" true (d.(0).(2) = infinity);
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Paths.all_pairs_weighted: negative edge cost") (fun () ->
      ignore (Paths.all_pairs_weighted ~cost:(fun _ _ -> -1.0) g))

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (2, 3); (3, 4) ] in
  let _, count = Paths.components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "not connected" false (Paths.is_connected g);
  Alcotest.(check bool) "cycle connected" true (Paths.is_connected (Gen.cycle_graph 4))

let test_connected_subset () =
  let g = Gen.path_graph 6 in
  Alcotest.(check bool) "prefix connected" true (Paths.is_connected_subset g [ 0; 1; 2 ]);
  Alcotest.(check bool) "gap disconnected" false (Paths.is_connected_subset g [ 0; 2 ])

(* Every vertex of [g], the subset [Separator.bisect] splits whole. *)
let all_vertices g = Array.init (Graph.n g) Fun.id

let connected_side g side = Paths.is_connected_subset g (Array.to_list side)

let test_bisect_balanced () =
  let g = Gen.path_graph 10 in
  match Separator.bisect g (all_vertices g) with
  | None -> Alcotest.fail "expected a bisection"
  | Some (a, b) ->
    Alcotest.(check int) "balanced small side" 5 (Array.length a);
    Alcotest.(check int) "covers all" 10 (Array.length a + Array.length b);
    Alcotest.(check bool) "side a connected" true (connected_side g a);
    Alcotest.(check bool) "side b connected" true (connected_side g b)

let test_bisect_star () =
  (* A star can only split 1 : n-1 through the hub... actually removing a
     spoke splits 1 vs n-1; the best split is as balanced as trees allow. *)
  let g = Gen.star 7 in
  match Separator.bisect g (all_vertices g) with
  | None -> Alcotest.fail "expected a bisection"
  | Some (a, b) ->
    Alcotest.(check bool) "both nonempty" true (a <> [||] && b <> [||]);
    Alcotest.(check bool) "connected sides" true
      (connected_side g a && connected_side g b)

let test_bisect_disconnected () =
  Alcotest.(check bool) "no bisection" true
    (Separator.bisect (Graph.of_edges 4 [ (0, 1) ]) [| 0; 1; 2; 3 |] = None)

let test_separability_chain () =
  (* Paper: linear nearest neighbor has s = 1/2 (for even splits). *)
  let s = Separator.separability (Gen.path_graph 12) in
  Alcotest.(check bool) "chain separability >= 1/2" true (s >= 0.5 -. 1e-9)

let test_separability_bound_examples () =
  List.iter
    (fun g ->
      let s = Separator.separability g in
      let bound = Separator.theorem1_bound g in
      Alcotest.(check bool)
        (Printf.sprintf "s=%.3f >= 1/k=%.3f" s bound)
        true
        (s >= bound -. 1e-9))
    [ Gen.path_graph 9; Gen.cycle_graph 8; Gen.grid 3 4; Gen.binary_tree 15 ]

let test_monomorph_path_in_grid () =
  let pattern = Gen.path_graph 4 in
  let target = Gen.grid 3 3 in
  let found = Monomorph.enumerate ~limit:5 ~pattern ~target () in
  Alcotest.(check bool) "found some" true (found <> []);
  List.iter
    (fun mapping ->
      Alcotest.(check bool) "valid" true (Monomorph.check ~pattern ~target mapping))
    found

let test_monomorph_infeasible () =
  (* K4 does not embed in a path. *)
  Alcotest.(check bool) "K4 in path8" false
    (Monomorph.exists ~pattern:(Gen.complete 4) ~target:(Gen.path_graph 8));
  (* Triangle does not embed in a tree. *)
  Alcotest.(check bool) "C3 in tree" false
    (Monomorph.exists ~pattern:(Gen.cycle_graph 3) ~target:(Gen.binary_tree 15))

let test_monomorph_counts () =
  (* A single edge into a path of 5: 4 edges x 2 orientations = 8 maps. *)
  let pattern = Graph.of_edges 2 [ (0, 1) ] in
  let found = Monomorph.enumerate ~limit:100 ~pattern ~target:(Gen.path_graph 5) () in
  Alcotest.(check int) "edge embeddings" 8 (List.length found)

let test_monomorph_limit () =
  let pattern = Graph.of_edges 2 [ (0, 1) ] in
  let found = Monomorph.enumerate ~limit:3 ~pattern ~target:(Gen.complete 6) () in
  Alcotest.(check int) "limit respected" 3 (List.length found)

let test_monomorph_isolated_pattern_vertices () =
  let pattern = Graph.of_edges 4 [ (1, 2) ] in
  let found = Monomorph.enumerate ~limit:1 ~pattern ~target:(Gen.path_graph 3) () in
  match found with
  | [ mapping ] ->
    Alcotest.(check int) "isolated unmapped q0" (-1) mapping.(0);
    Alcotest.(check int) "isolated unmapped q3" (-1) mapping.(3);
    Alcotest.(check bool) "edge mapped" true (mapping.(1) >= 0 && mapping.(2) >= 0)
  | _ -> Alcotest.fail "expected one mapping"

let test_monomorph_disconnected_pattern () =
  let pattern = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "two edges into path4" true
    (Monomorph.exists ~pattern ~target:(Gen.path_graph 4));
  Alcotest.(check bool) "two edges into path3" false
    (Monomorph.exists ~pattern ~target:(Gen.path_graph 3))

let test_hamilton_cycle () =
  Alcotest.(check bool) "cycle graph has HC" true (Hamilton.cycle (Gen.cycle_graph 6) <> None);
  Alcotest.(check bool) "complete has HC" true (Hamilton.cycle (Gen.complete 5) <> None);
  Alcotest.(check bool) "path has no HC" true (Hamilton.cycle (Gen.path_graph 5) = None);
  Alcotest.(check bool) "star has no HC" true (Hamilton.cycle (Gen.star 5) = None);
  Alcotest.(check bool) "petersen has no HC" true (Hamilton.cycle (Gen.petersen ()) = None)

let test_hamilton_path () =
  Alcotest.(check bool) "path graph has HP" true (Hamilton.path (Gen.path_graph 6) <> None);
  Alcotest.(check bool) "petersen has HP" true (Hamilton.path (Gen.petersen ()) <> None)

let test_hamilton_validates () =
  let g = Gen.cycle_graph 7 in
  match Hamilton.cycle g with
  | None -> Alcotest.fail "expected HC"
  | Some route -> Alcotest.(check bool) "is_cycle" true (Hamilton.is_cycle g route)

let test_generators_shapes () =
  Alcotest.(check int) "grid edges" 12 (Graph.edge_count (Gen.grid 3 3));
  Alcotest.(check int) "complete edges" 10 (Graph.edge_count (Gen.complete 5));
  Alcotest.(check int) "petersen 3-regular" 3 (Graph.max_degree (Gen.petersen ()));
  Alcotest.(check int) "petersen edges" 15 (Graph.edge_count (Gen.petersen ()))

let test_random_connected () =
  let rng = Qcp_util.Rng.create 12 in
  for _ = 1 to 10 do
    let n = 2 + Qcp_util.Rng.int rng 30 in
    let g = Gen.random_connected rng ~n ~extra_edges:(Qcp_util.Rng.int rng 8) in
    Alcotest.(check bool) "connected" true (Paths.is_connected g)
  done

let test_dot_output () =
  let dot = Qcp_graph.Dot.to_dot ~name:"t" (Gen.path_graph 3) in
  Alcotest.(check bool) "mentions edge" true (Helpers.contains ~needle:"v0 -- v1" dot)

let qcheck_bisect_sides_connected =
  QCheck.Test.make ~name:"bisect yields balanced connected sides" ~count:60
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:(n / 3) in
      match Separator.bisect g (all_vertices g) with
      | None -> false
      | Some (a, b) ->
        Array.length a + Array.length b = n
        && Array.length a <= Array.length b
        && connected_side g a
        && connected_side g b)

let qcheck_separability_theorem1 =
  QCheck.Test.make
    ~name:"separability >= 1/max_degree (Appendix Theorem 1)" ~count:60
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:(n / 4) in
      Separator.separability g >= Separator.theorem1_bound g -. 1e-9)

let qcheck_monomorph_check =
  QCheck.Test.make ~name:"enumerated monomorphisms validate" ~count:40
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, k) ->
      let rng = Qcp_util.Rng.create seed in
      let pattern = Gen.random_connected rng ~n:k ~extra_edges:1 in
      let target = Gen.random_connected rng ~n:(k + 4) ~extra_edges:(k + 2) in
      Monomorph.enumerate ~limit:20 ~pattern ~target ()
      |> List.for_all (fun mp -> Monomorph.check ~pattern ~target mp))

let suite =
  [
    Alcotest.test_case "of_edges basic" `Quick test_of_edges_basic;
    Alcotest.test_case "of_edges range check" `Quick test_of_edges_out_of_range;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "leaves" `Quick test_leaves;
    Alcotest.test_case "bfs distances" `Quick test_bfs_dist;
    Alcotest.test_case "bfs restricted" `Quick test_bfs_restricted;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "all-pairs weighted distances" `Quick test_all_pairs_weighted;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "connected subset" `Quick test_connected_subset;
    Alcotest.test_case "bisect chain" `Quick test_bisect_balanced;
    Alcotest.test_case "bisect star" `Quick test_bisect_star;
    Alcotest.test_case "bisect disconnected" `Quick test_bisect_disconnected;
    Alcotest.test_case "separability chain = 1/2" `Quick test_separability_chain;
    Alcotest.test_case "separability bound examples" `Quick test_separability_bound_examples;
    Alcotest.test_case "monomorph path in grid" `Quick test_monomorph_path_in_grid;
    Alcotest.test_case "monomorph infeasible" `Quick test_monomorph_infeasible;
    Alcotest.test_case "monomorph counts" `Quick test_monomorph_counts;
    Alcotest.test_case "monomorph limit" `Quick test_monomorph_limit;
    Alcotest.test_case "monomorph isolated vertices" `Quick test_monomorph_isolated_pattern_vertices;
    Alcotest.test_case "monomorph disconnected pattern" `Quick test_monomorph_disconnected_pattern;
    Alcotest.test_case "hamilton cycles" `Quick test_hamilton_cycle;
    Alcotest.test_case "hamilton paths" `Quick test_hamilton_path;
    Alcotest.test_case "hamilton validates" `Quick test_hamilton_validates;
    Alcotest.test_case "generator shapes" `Quick test_generators_shapes;
    Alcotest.test_case "random connected" `Quick test_random_connected;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    QCheck_alcotest.to_alcotest qcheck_bisect_sides_connected;
    QCheck_alcotest.to_alcotest qcheck_separability_theorem1;
    QCheck_alcotest.to_alcotest qcheck_monomorph_check;
  ]
