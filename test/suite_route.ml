(* Tests for qcp_route: permutations, SWAP networks, and both routers
   (correctness, depth bounds, the Figure 3 worked example). *)

module Perm = Qcp_route.Perm
module Swap_network = Qcp_route.Swap_network
module Bisect_router = Qcp_route.Bisect_router
module Token_router = Qcp_route.Token_router
module Graph = Qcp_graph.Graph
module Gen = Qcp_graph.Generators

let test_perm_basics () =
  Alcotest.(check bool) "identity valid" true (Perm.is_valid (Perm.identity 5));
  Alcotest.(check bool) "identity is identity" true (Perm.is_identity (Perm.identity 5));
  Alcotest.(check bool) "dup invalid" false (Perm.is_valid [| 0; 0; 2 |]);
  Alcotest.(check bool) "range invalid" false (Perm.is_valid [| 0; 3 |])

let test_perm_inverse_compose () =
  let p = [| 2; 0; 1; 3 |] in
  Alcotest.(check (array int)) "inverse" [| 1; 2; 0; 3 |] (Perm.inverse p);
  Alcotest.(check bool) "p . p^-1 = id" true
    (Perm.is_identity (Perm.compose p (Perm.inverse p)))

let test_perm_cycles () =
  let p = [| 1; 0; 3; 4; 2; 5 |] in
  Alcotest.(check int) "two cycles" 2 (List.length (Perm.cycles p));
  Alcotest.(check (list int)) "displaced" [ 0; 1; 2; 3; 4 ] (Perm.displaced p)

let test_perm_of_placements () =
  (* Two qubits over four vertices: q0 1->2, q1 3->1. *)
  let perm = Perm.of_placements ~size:4 ~before:[| 1; 3 |] ~after:[| 2; 1 |] in
  Alcotest.(check bool) "valid" true (Perm.is_valid perm);
  Alcotest.(check int) "q0 token" 2 perm.(1);
  Alcotest.(check int) "q1 token" 1 perm.(3);
  (* Vertex 0 is blank and its slot is free: fixed. *)
  Alcotest.(check int) "blank fixed" 0 perm.(0)

let test_perm_of_placements_rejects () =
  Alcotest.(check bool) "duplicate target" true
    (match Perm.of_placements ~size:3 ~before:[| 0; 1 |] ~after:[| 2; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_network_validity () =
  let g = Gen.path_graph 4 in
  Alcotest.(check bool) "valid levels" true
    (Swap_network.is_valid g [ [ (0, 1); (2, 3) ]; [ (1, 2) ] ]);
  Alcotest.(check bool) "overlapping invalid" false
    (Swap_network.is_valid g [ [ (0, 1); (1, 2) ] ]);
  Alcotest.(check bool) "non-edge invalid" false (Swap_network.is_valid g [ [ (0, 2) ] ])

let test_network_apply () =
  let config = Swap_network.apply [ [ (0, 1) ]; [ (1, 2) ] ] [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "tokens moved" [| 20; 30; 10 |] config

let test_network_to_circuit () =
  let c = Swap_network.to_circuit ~qubits:4 [ [ (0, 1); (2, 3) ] ] in
  Alcotest.(check int) "two swaps" 2 (Qcp_circuit.Circuit.gate_count c);
  Helpers.check_close "duration 3 each" 6.0 (Qcp_circuit.Circuit.total_duration c)

let check_route ?(leaf_override = true) g perm =
  let net = Bisect_router.route ~leaf_override g ~perm in
  Alcotest.(check bool) "realizes" true (Swap_network.realizes net ~perm);
  Alcotest.(check bool) "valid" true (Swap_network.is_valid g net);
  net

let test_route_identity () =
  let g = Gen.path_graph 5 in
  let net = check_route g (Perm.identity 5) in
  Alcotest.(check int) "empty network" 0 (Swap_network.depth net)

let test_route_adjacent_swap () =
  let g = Gen.path_graph 3 in
  let net = check_route g [| 1; 0; 2 |] in
  Alcotest.(check int) "single level" 1 (Swap_network.depth net)

let test_route_chain_reversal_linear_depth () =
  (* Reversal on a chain: the paper's asymptotically-hard case; depth must
     stay within the 8n+O(1) analytic bound and in practice near 2n. *)
  let n = 24 in
  let g = Gen.path_graph n in
  let net = check_route g (Array.init n (fun i -> n - 1 - i)) in
  Alcotest.(check bool) "depth within paper bound" true
    (Swap_network.depth net <= Bisect_router.depth_upper_bound g)

let test_route_rotation () =
  let n = 12 in
  let g = Gen.path_graph n in
  let net = check_route g (Array.init n (fun i -> (i + 1) mod n)) in
  (* The rotation (n,2,3,...,n-1,1)-style shift needs about n swaps. *)
  Alcotest.(check bool) "around n levels" true (Swap_network.depth net <= 2 * n)

let test_route_figure3_crotonic () =
  (* Example 4 / Figure 3: permute the trans-crotonic bond tree by
     M->C1->C2->C4, H1->C3, C3->H2, H2->H1, C4->M (the paper's permutation
     written over our vertex order M C1 H1 C2 C3 H2 C4). *)
  let env = Qcp_env.Molecules.trans_crotonic_acid in
  let bonds = Qcp_env.Environment.adjacency env ~threshold:100.0 in
  (* Paper mapping: M->C1, C1->C2, H1->C3, C2->C4, C3->H2, H2->H1, C4->M *)
  let perm = [| 1; 3; 4; 6; 5; 2; 0 |] in
  let net = check_route bonds perm in
  Alcotest.(check bool) "shallow network" true (Swap_network.depth net <= 10)

let test_route_disconnected_rejected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "raises" true
    (match Bisect_router.route g ~perm:(Perm.identity 4) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_route_bad_perm_rejected () =
  let g = Gen.path_graph 3 in
  Alcotest.(check bool) "raises" true
    (match Bisect_router.route g ~perm:[| 0; 0; 1 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_token_router_correct () =
  let rng = Qcp_util.Rng.create 5 in
  for _ = 1 to 15 do
    let n = 2 + Qcp_util.Rng.int rng 20 in
    let g = Gen.random_connected rng ~n ~extra_edges:(Qcp_util.Rng.int rng 6) in
    let perm = Perm.random rng n in
    let net = Token_router.route g ~perm in
    Alcotest.(check bool) "token router realizes" true
      (Swap_network.realizes net ~perm);
    Alcotest.(check bool) "token router valid" true (Swap_network.is_valid g net)
  done

let test_bisect_beats_token_on_chain () =
  (* Parallelism pays: the bisection router's depth is far below the
     sequential baseline on a chain reversal. *)
  let n = 20 in
  let g = Gen.path_graph n in
  let perm = Array.init n (fun i -> n - 1 - i) in
  let deep = Swap_network.depth (Token_router.route g ~perm) in
  let shallow = Swap_network.depth (Bisect_router.route g ~perm) in
  Alcotest.(check bool)
    (Printf.sprintf "bisect %d < token %d" shallow deep)
    true (shallow < deep)

let test_leaf_override_star () =
  (* On a star every non-hub vertex is a leaf: the override should resolve
     most of the permutation directly. *)
  let g = Gen.star 8 in
  let perm = [| 0; 2; 1; 4; 3; 6; 5; 7 |] in
  let with_override = check_route ~leaf_override:true g perm in
  let without = check_route ~leaf_override:false g perm in
  Alcotest.(check bool) "override not deeper" true
    (Swap_network.depth with_override <= Swap_network.depth without)

let qcheck_bisect_router_correct =
  QCheck.Test.make ~name:"bisect router realizes random permutations" ~count:80
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:(Qcp_util.Rng.int rng 8) in
      let perm = Perm.random rng n in
      let net = Bisect_router.route g ~perm in
      Swap_network.realizes net ~perm && Swap_network.is_valid g net)

let qcheck_bisect_router_no_override_correct =
  QCheck.Test.make ~name:"bisect router correct without leaf override" ~count:50
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:2 in
      let perm = Perm.random rng n in
      let net = Bisect_router.route ~leaf_override:false g ~perm in
      Swap_network.realizes net ~perm && Swap_network.is_valid g net)

let qcheck_depth_linear_bound =
  QCheck.Test.make ~name:"network depth within the paper's linear bound"
    ~count:60
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:(n / 4) in
      let perm = Perm.random rng n in
      let net = Bisect_router.route g ~perm in
      Swap_network.depth net <= Bisect_router.depth_upper_bound g)

let qcheck_network_swaps_on_edges =
  QCheck.Test.make ~name:"every emitted swap lies on a graph edge" ~count:50
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:3 in
      let perm = Perm.random rng n in
      Swap_network.is_valid g (Bisect_router.route g ~perm))

(* The placer's routing-free prebound lifts a displaced token's
   destination clock to [start.(src)] plus its SWAP distance
   ({!Qcp.Scoring.swap_lift}).  That lift must be admissible for every SWAP
   network the placer can time: whatever router built it, under either
   timing model and with or without a reuse cap, the network's finish
   clock at [dst] is never below the lift.  Environments are random
   molecules (non-uniform coupling delays) at a random threshold, plus
   non-uniform chains so the odd-even router runs too.  The bound must
   also be tight somewhere: a lift that never meets a real finish clock
   (say, one that charges too little) would pass vacuously. *)
let test_swap_lift_admissible () =
  let module Environment = Qcp_env.Environment in
  let module Timing = Qcp_circuit.Timing in
  let module Options = Qcp.Options in
  let checked = ref 0 and tight = ref 0 in
  let check_instance rng env adjacency =
    let m = Environment.size env in
    let routers =
      [
        ("bisect", fun perm -> Bisect_router.route adjacency ~perm);
        ( "bisect-no-override",
          fun perm -> Bisect_router.route ~leaf_override:false adjacency ~perm );
        ( "bisect-weighted",
          fun perm ->
            Bisect_router.route ~edge_cost:(Environment.coupling_delay env)
              adjacency ~perm );
        ("token", fun perm -> Token_router.route adjacency ~perm);
      ]
      @
      match Qcp_route.Oes_router.path_order adjacency with
      | Some _ -> [ ("odd-even", fun perm -> Qcp_route.Oes_router.route adjacency ~perm) ]
      | None -> []
    in
    let perm = Perm.random rng m in
    let start = Array.init m (fun _ -> Qcp_util.Rng.float rng 400.0) in
    List.iter
      (fun (model, reuse_cap) ->
        let options =
          { (Options.default ~threshold:infinity) with Options.model; reuse_cap }
        in
        let lift = Qcp.Scoring.swap_lift options env adjacency ~start in
        List.iter
          (fun (name, route) ->
            let circuit = Swap_network.to_circuit ~qubits:m (route perm) in
            let finish =
              Timing.finish_times ~model ?reuse_cap ~start
                ~weights:(Environment.weights env) ~place:Fun.id circuit
            in
            Array.iteri
              (fun src dst ->
                if src <> dst then begin
                  let bound = lift src dst in
                  incr checked;
                  if finish.(dst) < bound then
                    Alcotest.failf "%s: token %d->%d finishes at %g < lift %g"
                      name src dst finish.(dst) bound;
                  if finish.(dst) -. bound <= 1e-9 *. finish.(dst) then incr tight
                end)
              perm)
          routers)
      [
        (Timing.Asap, None);
        (Timing.Asap, Some 3.0);
        (Timing.Asap, Some 1.5);
        (Timing.Sequential, None);
        (Timing.Sequential, Some 1.5);
      ]
  in
  for seed = 1 to 40 do
    let rng = Qcp_util.Rng.create seed in
    let n = 4 + Qcp_util.Rng.int rng 6 in
    let env = Qcp_env.Random_env.molecule rng ~n in
    let threshold = Qcp_env.Random_env.interesting_threshold rng env in
    (match Environment.connected_adjacency env ~threshold with
    | Some adjacency -> check_instance rng env adjacency
    | None -> ());
    let chain =
      Environment.of_couplings ~name:"chain"
        ~nuclei:(Array.init n string_of_int)
        ~single:(Array.make n 1.0)
        ~couplings:
          (List.init (n - 1) (fun i ->
               (i, i + 1, 25.0 +. Qcp_util.Rng.float rng 135.0)))
        ()
    in
    match Environment.connected_adjacency chain ~threshold:200.0 with
    | Some adjacency -> check_instance rng chain adjacency
    | None -> Alcotest.fail "chain environment has no adjacency"
  done;
  Alcotest.(check bool) "tokens checked" true (!checked > 1000);
  Alcotest.(check bool) "bound tight somewhere" true (!tight > 0)

let suite =
  [
    Alcotest.test_case "perm basics" `Quick test_perm_basics;
    Alcotest.test_case "perm inverse/compose" `Quick test_perm_inverse_compose;
    Alcotest.test_case "perm cycles" `Quick test_perm_cycles;
    Alcotest.test_case "perm of placements" `Quick test_perm_of_placements;
    Alcotest.test_case "perm of placements rejects" `Quick test_perm_of_placements_rejects;
    Alcotest.test_case "network validity" `Quick test_network_validity;
    Alcotest.test_case "network apply" `Quick test_network_apply;
    Alcotest.test_case "network to circuit" `Quick test_network_to_circuit;
    Alcotest.test_case "route identity" `Quick test_route_identity;
    Alcotest.test_case "route adjacent swap" `Quick test_route_adjacent_swap;
    Alcotest.test_case "route chain reversal depth" `Quick test_route_chain_reversal_linear_depth;
    Alcotest.test_case "route rotation" `Quick test_route_rotation;
    Alcotest.test_case "route Figure 3 (crotonic)" `Quick test_route_figure3_crotonic;
    Alcotest.test_case "route rejects disconnected" `Quick test_route_disconnected_rejected;
    Alcotest.test_case "route rejects bad perm" `Quick test_route_bad_perm_rejected;
    Alcotest.test_case "token router correct" `Quick test_token_router_correct;
    Alcotest.test_case "bisect beats token on chains" `Quick test_bisect_beats_token_on_chain;
    Alcotest.test_case "leaf override on star" `Quick test_leaf_override_star;
    Alcotest.test_case "swap lift admissible for every router" `Quick
      test_swap_lift_admissible;
    QCheck_alcotest.to_alcotest qcheck_bisect_router_correct;
    QCheck_alcotest.to_alcotest qcheck_bisect_router_no_override_correct;
    QCheck_alcotest.to_alcotest qcheck_depth_linear_bound;
    QCheck_alcotest.to_alcotest qcheck_network_swaps_on_edges;
  ]
