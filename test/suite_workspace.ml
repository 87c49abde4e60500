(* Tests for the greedy maximal-prefix subcircuit formation (Section 5.1). *)

module Workspace = Qcp.Workspace
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Catalog = Qcp_circuit.Catalog
module Gen = Qcp_graph.Generators
module Graph = Qcp_graph.Graph
module Monomorph = Qcp_graph.Monomorph
module Paths = Qcp_graph.Paths
module Rng = Qcp_util.Rng

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

(* ------------------------------------------------------------------ *)
(* Odd-cycle refutation in the oracle.                                  *)
(* ------------------------------------------------------------------ *)

(* Computed apart from the oracle: [pair] closes an odd cycle when the
   pattern already joins its endpoints by an even-length path. *)
let closes_odd_cycle ~qubits edges (a, b) =
  let d = Paths.bfs_dist (Graph.of_edges qubits edges) a in
  d.(b) >= 0 && d.(b) mod 2 = 0

(* Grow a random pattern through the oracle as the splitter does (new pairs
   only, commit on admission), checking every answer against
   [Monomorph.exists] on the built pattern.  Returns the odd-cycle-closing
   queries as (answer, exists) pairs. *)
let drive_oracle ~target ~qubits ~seed =
  let rng = Rng.create seed in
  let o = Workspace.make_oracle ~adjacency:target ~qubits () in
  let admitted = ref [] in
  let odd = ref [] in
  for step = 0 to 29 do
    let a = Rng.int rng qubits and b = Rng.int rng qubits in
    let pair = (Int.min a b, Int.max a b) in
    if a <> b && not (List.mem pair !admitted) then begin
      let exists =
        Monomorph.exists
          ~pattern:(Graph.of_edges qubits (pair :: !admitted))
          ~target
      in
      let answer = o.Workspace.o_extends pair in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d step %d answer" seed step)
        exists answer;
      if closes_odd_cycle ~qubits !admitted pair then
        odd := (answer, exists) :: !odd;
      if answer then begin
        o.Workspace.o_admit pair;
        admitted := pair :: !admitted
      end
    end
  done;
  !odd

let test_parity_refutation_sound () =
  let refuted = ref 0 in
  List.iteri
    (fun ti (name, target) ->
      Alcotest.(check bool) (name ^ " is bipartite") true
        (Paths.is_bipartite target);
      for seed = 0 to 9 do
        List.iter
          (fun (_, exists) ->
            incr refuted;
            Alcotest.(check bool)
              (Printf.sprintf "%s seed %d: odd cycle has no embedding" name seed)
              false exists)
          (drive_oracle ~target
             ~qubits:(Int.min 10 (Graph.n target))
             ~seed:(8000 + (100 * ti) + seed))
      done)
    [
      ("grid-4x4", Gen.grid 4 4);
      ("cycle-10", Gen.cycle_graph 10);
      ("heavy-hex", Gen.heavy_hex ~rows:3 ~cols:5);
    ];
  Alcotest.(check bool) "odd-cycle queries exercised" true (!refuted > 0)

let test_parity_inactive_on_odd_targets () =
  let admitted_odd = ref 0 in
  List.iteri
    (fun ti (name, target) ->
      Alcotest.(check bool) (name ^ " is not bipartite") false
        (Paths.is_bipartite target);
      for seed = 0 to 9 do
        List.iter
          (fun (answer, _) -> if answer then incr admitted_odd)
          (drive_oracle ~target
             ~qubits:(Int.min 8 (Graph.n target))
             ~seed:(8500 + (100 * ti) + seed))
      done)
    [
      ("grid-3x3+diagonal", Graph.add_edges (Gen.grid 3 3) [ (0, 4) ]);
      ("petersen", Gen.petersen ());
      ("complete-5", Gen.complete 5);
    ];
  Alcotest.(check bool) "odd cycles admitted" true (!admitted_odd > 0)

(* Stage boundaries (gate counts), an MD5 of every stage's gate pairs and
   witness, and the oracle's work -- calls, search nodes and budget
   cut-offs -- of [split_windowed ~window:64] on seeded hidden-stage
   circuits, as produced by the mask-intersection search before odd-cycle
   refutation existed.  Every later search rewrite walks the same tree and
   the refutation only skips searches that would refuse, so nothing here
   may move. *)
type golden = {
  seed : int;
  sizes : int list;
  digest : string;
  calls : int;
  nodes : int;
  exhausted : int;
}

let g seed sizes digest calls nodes exhausted =
  { seed; sizes; digest; calls; nodes; exhausted }

(* 8x8 grid, 4 stages of 400 gates. *)
let grid8_goldens =
  [
    g 9000 [ 370; 208; 240; 390; 258; 134 ] "6b08ccebd3a0a73f5fcd81670baefcc4" 410 356294 29;
    g 9001 [ 335; 194; 285; 373; 260; 153 ] "d4275ba2f51b9811c238e67aa20a4e6a" 411 497216 35;
    g 9002 [ 381; 221; 214; 332; 152; 300 ] "80d996f472a0738573792dd90333ef26" 439 348721 25;
    g 9003 [ 404; 398; 405; 321; 72 ] "2640c6cdaf818ba55411459e812a7beb" 340 286852 25;
    g 9004 [ 251; 187; 369; 345; 169; 279 ] "e151ae4f47ed20e7b761bf9b62ec0fbd" 425 346860 29;
    g 9005 [ 279; 168; 324; 259; 195; 340; 35 ] "357ec0a718aec2ff9278bf41d718f984" 436 418266 34;
    g 9006 [ 294; 153; 349; 320; 169; 315 ] "d0806563b199cd8efc0a19b841486d30" 422 377630 32;
    g 9007 [ 327; 188; 303; 393; 358; 31 ] "06b5db23a67d7d7d2088c69a6340c7bb" 381 375073 24;
    g 9008 [ 145; 269; 353; 224; 226; 383 ] "c5aa0d0ab23d5d79ba63e8e878a6624a" 425 418847 35;
    g 9009 [ 333; 177; 298; 406; 296; 90 ] "fd045f0cf7d1d11ffa3b3a5c7df7eb44" 408 350886 30;
  ]

(* 16x16 grid, 4 stages of 6,400 gates: the scale-grid benchmark's pool
   circuits 0 and 1 (seeds 4242 and 4242 + 104729), whose near-spanning
   stage patterns are where the oracle spends its time. *)
let grid16_goldens =
  [
    g 4242 [ 2236; 4199; 1263; 5104; 3718; 2747; 1367; 4966 ]
      "13d4be16e808ba7a682e2f0b90f2c94e" 2168 2264998 185;
    g (4242 + 104729) [ 2772; 3655; 1105; 5274; 1004; 5195; 1106; 5408; 81 ]
      "d66d50bd6eaddc233d20fc8b42994e47" 2198 2769027 190;
  ]

let stage_signature (sub, witness) =
  let ints l = String.concat "," (List.map string_of_int l) in
  String.concat ";"
    (List.map (fun g -> ints (Gate.qubits g)) (Circuit.gates sub))
  ^ "|"
  ^ match witness with None -> "-" | Some w -> ints (Array.to_list w)

let check_split_golden ~side ~gates_per_stage golden =
  let adjacency = Gen.grid side side in
  let circuit =
    Qcp_circuit.Random_circuit.hidden_stages_custom (Rng.create golden.seed)
      ~n:(side * side) ~stages:4 ~gates_per_stage
  in
  let counters = Workspace.counters () in
  match Workspace.split_windowed ~counters ~window:64 ~adjacency circuit with
  | Error msg -> Alcotest.failf "seed %d: %s" golden.seed msg
  | Ok stages ->
    let label what = Printf.sprintf "%dx%d seed %d %s" side side golden.seed what in
    Alcotest.(check (list int))
      (label "stage sizes") golden.sizes
      (List.map (fun (s, _) -> Circuit.gate_count s) stages);
    Alcotest.(check string)
      (label "gates and witnesses") golden.digest
      (Digest.to_hex
         (Digest.string (String.concat "\n" (List.map stage_signature stages))));
    Alcotest.(check int) (label "oracle calls") golden.calls counters.Workspace.calls;
    Alcotest.(check int) (label "oracle nodes") golden.nodes counters.Workspace.nodes;
    Alcotest.(check int)
      (label "oracle cut-offs") golden.exhausted counters.Workspace.exhausted

let test_windowed_split_golden () =
  List.iter (check_split_golden ~side:8 ~gates_per_stage:400) grid8_goldens

let test_windowed_split_golden_16x16 () =
  List.iter (check_split_golden ~side:16 ~gates_per_stage:6400) grid16_goldens

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
    Alcotest.test_case "parity refutations are sound" `Quick
      test_parity_refutation_sound;
    Alcotest.test_case "parity inactive on non-bipartite targets" `Quick
      test_parity_inactive_on_odd_targets;
    Alcotest.test_case "windowed split matches golden stages" `Quick
      test_windowed_split_golden;
    Alcotest.test_case "windowed split matches 16x16 golden stages" `Quick
      test_windowed_split_golden_16x16;
  ]
