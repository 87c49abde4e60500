(* Tests for the greedy maximal-prefix subcircuit formation (Section 5.1). *)

module Workspace = Qcp.Workspace
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Catalog = Qcp_circuit.Catalog
module Gen = Qcp_graph.Generators

let gate_count_sum subs =
  List.fold_left (fun acc c -> acc + Circuit.gate_count c) 0 subs

(* The paper's greedy split is the windowed splitter at window 1. *)
let split ~adjacency circuit =
  Result.map (List.map fst) (Workspace.split_windowed ~window:1 ~adjacency circuit)

let split_exn ~adjacency circuit =
  match split ~adjacency circuit with
  | Ok subs -> subs
  | Error msg -> Alcotest.failf "unexpected split failure: %s" msg

let test_single_workspace_when_alignable () =
  (* qec5's interactions form a chain: one workspace on a chain machine. *)
  let subs = split_exn ~adjacency:(Gen.path_graph 5) Catalog.qec5_encode in
  Alcotest.(check int) "one workspace" 1 (List.length subs)

let test_gates_preserved_in_order () =
  let circuit = Catalog.qft 5 in
  let subs = split_exn ~adjacency:(Gen.path_graph 5) circuit in
  Alcotest.(check int) "gates preserved" (Circuit.gate_count circuit)
    (gate_count_sum subs);
  let flattened = List.concat_map Circuit.gates subs in
  Alcotest.(check bool) "order preserved" true
    (flattened = Circuit.gates circuit)

let test_qft_on_chain_splits () =
  (* K6 interactions cannot align with a chain: multiple workspaces. *)
  let subs = split_exn ~adjacency:(Gen.path_graph 6) (Catalog.qft 6) in
  Alcotest.(check bool) "several workspaces" true (List.length subs > 1)

let test_complete_target_one_workspace () =
  let subs = split_exn ~adjacency:(Gen.complete 6) (Catalog.qft 6) in
  Alcotest.(check int) "complete machine: one workspace" 1 (List.length subs)

let test_each_subcircuit_alignable () =
  let adjacency = Gen.path_graph 6 in
  let subs = split_exn ~adjacency (Catalog.qft 6) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) "subcircuit alignable" true
        (Qcp_graph.Monomorph.exists ~pattern:(Workspace.pattern sub)
           ~target:adjacency))
    subs

let test_maximality () =
  (* Greedy maximality: moving the first gate of subcircuit i+1 into
     subcircuit i must break alignability. *)
  let adjacency = Gen.path_graph 6 in
  let subs = split_exn ~adjacency (Catalog.qft 6) in
  let rec check = function
    | a :: (b :: _ as rest) ->
      (match Circuit.gates b with
      | next :: _ when Gate.is_two_qubit next ->
        let extended =
          Circuit.make ~qubits:(Circuit.qubits a) (Circuit.gates a @ [ next ])
        in
        Alcotest.(check bool) "extension breaks alignment" false
          (Qcp_graph.Monomorph.exists
             ~pattern:(Workspace.pattern extended)
             ~target:adjacency)
      | _ -> Alcotest.fail "subcircuit must start with a two-qubit gate");
      check rest
    | [ _ ] | [] -> ()
  in
  check subs

let test_unalignable_reports_error () =
  (* An edgeless adjacency cannot host any interaction. *)
  let adjacency = Qcp_graph.Graph.of_edges 3 [] in
  match split ~adjacency Catalog.qec3_encode with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

let test_single_qubit_only_circuit () =
  let circuit = Circuit.make ~qubits:3 [ Gate.ry 0 90.0; Gate.rz 1 45.0 ] in
  let subs = split_exn ~adjacency:(Gen.path_graph 3) circuit in
  Alcotest.(check int) "one workspace" 1 (List.length subs)

let test_empty_circuit () =
  let subs = split_exn ~adjacency:(Gen.path_graph 3) (Circuit.make ~qubits:3 []) in
  Alcotest.(check int) "no workspaces" 0 (List.length subs)

let test_repeated_pair_does_not_split () =
  (* Re-using an existing interaction never opens a new workspace. *)
  let circuit =
    Circuit.make ~qubits:3
      [ Gate.zz 0 1 90.0; Gate.zz 1 2 90.0; Gate.zz 0 1 90.0; Gate.zz 1 2 90.0 ]
  in
  let subs = split_exn ~adjacency:(Gen.path_graph 3) circuit in
  Alcotest.(check int) "one workspace" 1 (List.length subs)

let qcheck_split_preserves_gates =
  QCheck.Test.make ~name:"split preserves the gate sequence" ~count:50
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
      match split ~adjacency:(Gen.path_graph n) circuit with
      | Error _ -> false
      | Ok subs ->
        List.concat_map Circuit.gates subs = Circuit.gates circuit)

let qcheck_hidden_stage_count =
  QCheck.Test.make
    ~name:"hidden-stage circuits split into about one workspace per stage"
    ~count:25
    QCheck.(pair small_int (int_range 8 24))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let circuit, stages = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
      match split ~adjacency:(Gen.path_graph n) circuit with
      | Error _ -> false
      | Ok subs ->
        (* Greedy splitting may occasionally merge or split a stage, but the
           count must track the hidden structure closely (Table 4 observes
           exact agreement). *)
        let k = List.length subs in
        k >= stages && k <= stages + 2)

let suite =
  [
    Alcotest.test_case "single workspace when alignable" `Quick
      test_single_workspace_when_alignable;
    Alcotest.test_case "gates preserved in order" `Quick test_gates_preserved_in_order;
    Alcotest.test_case "qft on chain splits" `Quick test_qft_on_chain_splits;
    Alcotest.test_case "complete target: one workspace" `Quick
      test_complete_target_one_workspace;
    Alcotest.test_case "each subcircuit alignable" `Quick test_each_subcircuit_alignable;
    Alcotest.test_case "greedy maximality" `Quick test_maximality;
    Alcotest.test_case "unalignable error" `Quick test_unalignable_reports_error;
    Alcotest.test_case "single-qubit-only circuit" `Quick test_single_qubit_only_circuit;
    Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
    Alcotest.test_case "repeated pair no split" `Quick test_repeated_pair_does_not_split;
    QCheck_alcotest.to_alcotest qcheck_split_preserves_gates;
    QCheck_alcotest.to_alcotest qcheck_hidden_stage_count;
  ]
