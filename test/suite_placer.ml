(* End-to-end tests of the placement pipeline, anchored on the paper's
   numbers where it prints them. *)

module Placer = Qcp.Placer
module Options = Qcp.Options
module Molecules = Qcp_env.Molecules
module Environment = Qcp_env.Environment
module Catalog = Qcp_circuit.Catalog
module Circuit = Qcp_circuit.Circuit

let place_exn options env circuit =
  match Placer.place options env circuit with
  | Placer.Placed p -> p
  | Placer.Unplaceable msg -> Alcotest.failf "unexpectedly unplaceable: %s" msg

let test_qec3_acetyl_optimum () =
  (* Table 2 row 1: the tool must recover the experimentalists' optimum,
     .0136 s, with a single workspace. *)
  let env = Molecules.acetyl_chloride in
  let options = Options.default ~threshold:(Environment.min_threshold_connected env) in
  let p = place_exn options env Catalog.qec3_encode in
  Alcotest.(check int) "one workspace" 1 (Placer.subcircuit_count p);
  Helpers.check_close "optimal runtime .0136 s" 0.0136 (Placer.runtime_seconds p);
  (* The optimal mapping of Example 3: a->C2, b->C1, c->M. *)
  match Placer.initial_placement p with
  | Some placement -> Alcotest.(check (array int)) "Example 3 mapping" [| 2; 1; 0 |] placement
  | None -> Alcotest.fail "expected a placement"

let test_qec5_crotonic_single_workspace () =
  (* Table 2 row 2: one workspace on trans-crotonic acid; runtime within the
     paper's order of magnitude (.0779 s on the real spectrometer data). *)
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env Catalog.qec5_encode in
  Alcotest.(check int) "one workspace" 1 (Placer.subcircuit_count p);
  let rt = Placer.runtime_seconds p in
  Alcotest.(check bool)
    (Printf.sprintf "runtime %.4f in [0.005, 0.2]" rt)
    true
    (rt > 0.005 && rt < 0.2)

let test_cat10_histidine_single_workspace () =
  (* Table 2 row 3: pseudo-cat preparation fits histidine in one workspace. *)
  let env = Molecules.histidine in
  let p = place_exn (Options.default ~threshold:1000.0) env (Catalog.cat_state 10) in
  Alcotest.(check int) "one workspace" 1 (Placer.subcircuit_count p);
  let rt = Placer.runtime_seconds p in
  Alcotest.(check bool)
    (Printf.sprintf "runtime %.4f in [0.02, 2]" rt)
    true
    (rt > 0.02 && rt < 2.0)

let test_iron_na_rows () =
  (* Table 3: thresholds 50 and 100 on the iron complex are N/A. *)
  let env = Molecules.iron_complex in
  let circuit = Catalog.phase_estimation 4 in
  List.iter
    (fun th ->
      match Placer.place (Options.default ~threshold:th) env circuit with
      | Placer.Unplaceable _ -> ()
      | Placer.Placed _ -> Alcotest.failf "threshold %g should be N/A" th)
    [ 50.0; 100.0 ];
  match Placer.place (Options.default ~threshold:200.0) env circuit with
  | Placer.Placed _ -> ()
  | Placer.Unplaceable msg -> Alcotest.failf "threshold 200 should place: %s" msg

let test_too_many_qubits () =
  match
    Placer.place
      (Options.default ~threshold:1000.0)
      Molecules.acetyl_chloride (Catalog.qft 6)
  with
  | Placer.Unplaceable _ -> ()
  | Placer.Placed _ -> Alcotest.fail "6 qubits cannot fit 3 nuclei"

let test_subcircuits_decrease_with_threshold () =
  (* Table 3's bracketed counts: more subcircuits at smaller thresholds. *)
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qft 6 in
  let count th =
    Placer.subcircuit_count (place_exn (Options.default ~threshold:th) env circuit)
  in
  let c50 = count 50.0 and c1000 = count 1000.0 and c10000 = count 10000.0 in
  Alcotest.(check int) "one workspace at 10000" 1 c10000;
  Alcotest.(check bool)
    (Printf.sprintf "counts decrease: %d >= %d >= %d" c50 c1000 c10000)
    true
    (c50 >= c1000 && c1000 >= c10000)

let test_swap_stages_interleave () =
  (* A placed program alternates computes and permutes; consecutive
     placements are linked by networks realizing the right permutation. *)
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env (Catalog.qft 6) in
  let stages = p.Placer.stages in
  Alcotest.(check bool) "has swap stages" true (Placer.swap_stage_count p > 0);
  let rec walk current = function
    | [] -> ()
    | Placer.Permute net :: rest ->
      (match current with
      | None -> Alcotest.fail "permute before any compute"
      | Some placement ->
        let m = Environment.size env in
        let config =
          Qcp_route.Swap_network.apply net (Array.init m (fun v -> v))
        in
        (* Token at placement.(q) must be found at the next placement. *)
        (match rest with
        | Placer.Compute { placement = next; _ } :: _ ->
          Array.iteri
            (fun q v ->
              Alcotest.(check int) "token delivered" v
                (let rec find i = if config.(i) = placement.(q) then i else find (i + 1) in
                 ignore q;
                 find 0))
            next
        | _ -> Alcotest.fail "permute must be followed by a compute");
        walk current rest)
    | Placer.Compute { placement; _ } :: rest -> walk (Some placement) rest
  in
  walk None stages

let test_physical_circuit_consistency () =
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env (Catalog.qft 6) in
  let phys = Placer.to_physical_circuit p in
  Alcotest.(check int) "physical register" (Environment.size env) (Circuit.qubits phys);
  Alcotest.(check bool) "swaps included" true
    (Circuit.gate_count phys > Circuit.gate_count (Catalog.qft 6))

let test_runtime_matches_scores () =
  (* Program runtime equals timing the flattened physical circuit (modulo
     reuse-cap resets at stage boundaries, equal here). *)
  let env = Molecules.acetyl_chloride in
  let p =
    place_exn (Options.default ~threshold:100.0) env Catalog.qec3_encode
  in
  let direct =
    Qcp_circuit.Timing.runtime ~weights:(Environment.weights env)
      ~place:Qcp_circuit.Timing.identity_place
      (Placer.to_physical_circuit p)
  in
  Helpers.check_close "consistent" direct (Placer.runtime p)

let test_chain_hidden_stages () =
  (* Table 4 structure: one subcircuit per hidden stage. *)
  let rng = Qcp_util.Rng.create 7 in
  let circuit, stages = Qcp_circuit.Random_circuit.hidden_stages rng ~n:16 in
  let env = Environment.chain 16 in
  let p = place_exn (Options.fast ~threshold:50.0) env circuit in
  Alcotest.(check int) "subcircuits = hidden stages" stages
    (Placer.subcircuit_count p);
  Alcotest.(check int) "swap stages between them" (stages - 1)
    (Placer.swap_stage_count p)

let test_placements_injective () =
  let env = Molecules.histidine in
  let p = place_exn (Options.default ~threshold:500.0) env (Catalog.aqft 9) in
  List.iter
    (fun placement ->
      let sorted = Array.to_list placement |> List.sort_uniq compare in
      Alcotest.(check int) "injective" (Array.length placement) (List.length sorted))
    (Placer.placements p)

let test_gates_on_fast_edges () =
  (* Every placed two-qubit computation gate must lie on an adjacency edge
     (the whole point of threshold preprocessing). *)
  let env = Molecules.trans_crotonic_acid in
  let options = Options.default ~threshold:200.0 in
  let p = place_exn options env (Catalog.phase_estimation 4) in
  List.iter
    (fun stage ->
      match stage with
      | Placer.Permute _ -> ()
      | Placer.Compute { placement; circuit } ->
        List.iter
          (fun gate ->
            match Qcp_circuit.Gate.qubits gate with
            | [ a; b ] ->
              Alcotest.(check bool) "on fast edge" true
                (Qcp_graph.Graph.mem_edge p.Placer.adjacency placement.(a)
                   placement.(b))
            | _ -> ())
          (Circuit.gates circuit))
    p.Placer.stages

let test_empty_circuit_program () =
  let env = Molecules.acetyl_chloride in
  let p = place_exn (Options.default ~threshold:100.0) env (Circuit.make ~qubits:2 []) in
  Alcotest.(check int) "no stages" 0 (List.length p.Placer.stages);
  Helpers.check_close "zero runtime" 0.0 (Placer.runtime p)

let test_lookahead_not_worse_much () =
  (* Lookahead should not lose badly to greedy (it optimizes a superset). *)
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.phase_estimation 4 in
  let base = Options.default ~threshold:100.0 in
  let with_la = place_exn { base with Options.lookahead = true } env circuit in
  let without = place_exn { base with Options.lookahead = false } env circuit in
  let a = Placer.runtime with_la and b = Placer.runtime without in
  Alcotest.(check bool)
    (Printf.sprintf "lookahead %.0f vs greedy %.0f" a b)
    true
    (a <= b *. 1.35 +. 1e-9)

let test_fine_tune_never_hurts () =
  let env = Molecules.boc_glycine_fluoride in
  let circuit = Catalog.phase_estimation 4 in
  let base = Options.default ~threshold:200.0 in
  let tuned = place_exn base env circuit in
  let untuned = place_exn { base with Options.fine_tune_passes = 0 } env circuit in
  Alcotest.(check bool) "fine tuning helps or ties" true
    (Placer.runtime tuned <= Placer.runtime untuned +. 1e-9)

let test_balance_boundaries () =
  (* The refinement must never hurt, and refined programs stay correct. *)
  List.iter
    (fun (env, circuit, threshold) ->
      let base = Options.default ~threshold in
      let plain = place_exn base env circuit in
      let balanced =
        place_exn { base with Options.balance_boundaries = true } env circuit
      in
      Alcotest.(check bool)
        (Printf.sprintf "balanced %.0f <= plain %.0f" (Placer.runtime balanced)
           (Placer.runtime plain))
        true
        (Placer.runtime balanced <= Placer.runtime plain +. 1e-9);
      Alcotest.(check bool) "balanced program verified" true
        (Qcp.Verify.equivalent ~inputs:[ 0; 1 ] balanced))
    [
      (Molecules.trans_crotonic_acid, Catalog.phase_estimation 4, 100.0);
      (Molecules.trans_crotonic_acid, Catalog.qft 5, 100.0);
      (Molecules.boc_glycine_fluoride, Catalog.phase_estimation 4, 200.0);
    ]

let test_balance_gate_conservation () =
  (* Donated gates must not be lost or duplicated. *)
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qft 6 in
  let options =
    { (Options.default ~threshold:100.0) with Options.balance_boundaries = true }
  in
  let p = place_exn options env circuit in
  let placed_gates =
    List.concat_map
      (function
        | Placer.Compute { circuit; _ } -> Circuit.gates circuit
        | Placer.Permute _ -> [])
      p.Placer.stages
  in
  Alcotest.(check bool) "same gate sequence" true
    (placed_gates = Circuit.gates circuit)

let test_option_combinations () =
  (* Every combination of the heuristic toggles must stay correct. *)
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qft 5 in
  List.iter
    (fun lookahead ->
      List.iter
        (fun balance ->
          List.iter
            (fun commute ->
              List.iter
                (fun router ->
                  let options =
                    {
                      (Options.default ~threshold:100.0) with
                      Options.lookahead;
                      balance_boundaries = balance;
                      commute_prepass = commute;
                      router;
                      monomorphism_limit = 12;
                      fine_tune_passes = 1;
                    }
                  in
                  match Placer.place options env circuit with
                  | Placer.Unplaceable msg ->
                    Alcotest.failf "combo unplaceable: %s" msg
                  | Placer.Placed p ->
                    Alcotest.(check bool) "combo verified" true
                      (Qcp.Verify.equivalent ~inputs:[ 0; 9 ] p))
                [ Options.Bisect; Options.Bisect_weighted; Options.Token;
                  Options.Odd_even ])
            [ false; true ])
        [ false; true ])
    [ false; true ]

let test_with_t2_override () =
  let env = Environment.with_t2 Molecules.acetyl_chloride [| 100.0; 100.0; 100.0 |] in
  Helpers.check_close "override applied" 100.0 (Environment.t2 env 1);
  match Placer.place (Options.default ~threshold:100.0) env Catalog.qec3_encode with
  | Placer.Placed p ->
    (* With T2 = 100 units and runtime 136, fidelity collapses. *)
    Alcotest.(check bool) "short T2 destroys fidelity" true
      (Qcp.Fidelity.estimate p < 0.1)
  | Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg

let qcheck_placed_random_circuits_route_correctly =
  QCheck.Test.make ~name:"random placements: every swap stage is a valid network"
    ~count:15
    QCheck.(pair small_int (int_range 4 10))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
      let env = Environment.chain n in
      match Placer.place (Options.fast ~threshold:50.0) env circuit with
      | Placer.Unplaceable _ -> false
      | Placer.Placed p ->
        List.for_all
          (function
            | Placer.Permute net ->
              Qcp_route.Swap_network.is_valid p.Placer.adjacency net
            | Placer.Compute _ -> true)
          p.Placer.stages)

(* ------------------------------ stats ----------------------------- *)

let test_stats_populated () =
  let env = Molecules.trans_crotonic_acid in
  match Placer.place (Options.default ~threshold:100.0) env (Catalog.qft 6) with
  | Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg
  | Placer.Placed p ->
    let s = p.Placer.stats in
    Alcotest.(check bool) "oracle consulted" true (s.Placer.oracle_calls > 0);
    Alcotest.(check bool) "candidates scored" true (s.Placer.candidates_scored > 0);
    Alcotest.(check bool) "networks routed" true (s.Placer.networks_routed > 0)

let test_stats_oracle_bound () =
  (* The paper's bound: at most 2s monomorphism calls for s two-qubit gates;
     our implementation only queries on new pairs, so even fewer. *)
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qft 6 in
  match Placer.place (Options.default ~threshold:200.0) env circuit with
  | Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg
  | Placer.Placed p ->
    let s = Circuit.two_qubit_count circuit in
    Alcotest.(check bool)
      (Printf.sprintf "%d oracle calls <= 2s = %d" p.Placer.stats.Placer.oracle_calls (2 * s))
      true
      (p.Placer.stats.Placer.oracle_calls <= 2 * s)

let test_stats_lookahead_costs_more () =
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qft 6 in
  let base = Options.default ~threshold:100.0 in
  match
    ( Placer.place base env circuit,
      Placer.place { base with Options.lookahead = false } env circuit )
  with
  | Placer.Placed la, Placer.Placed greedy ->
    Alcotest.(check bool) "lookahead scores more candidates" true
      (la.Placer.stats.Placer.candidates_scored
      > greedy.Placer.stats.Placer.candidates_scored)
  | _ -> Alcotest.fail "both must place"

let suite =
  [
    Alcotest.test_case "qec3->acetyl optimum (Table 2)" `Quick test_qec3_acetyl_optimum;
    Alcotest.test_case "qec5->crotonic (Table 2)" `Quick test_qec5_crotonic_single_workspace;
    Alcotest.test_case "cat10->histidine (Table 2)" `Quick test_cat10_histidine_single_workspace;
    Alcotest.test_case "iron N/A (Table 3)" `Quick test_iron_na_rows;
    Alcotest.test_case "too many qubits" `Quick test_too_many_qubits;
    Alcotest.test_case "subcircuit counts vs threshold (Table 3)" `Quick
      test_subcircuits_decrease_with_threshold;
    Alcotest.test_case "swap stages deliver placements" `Quick test_swap_stages_interleave;
    Alcotest.test_case "physical circuit consistency" `Quick test_physical_circuit_consistency;
    Alcotest.test_case "runtime consistency" `Quick test_runtime_matches_scores;
    Alcotest.test_case "chain hidden stages (Table 4)" `Quick test_chain_hidden_stages;
    Alcotest.test_case "placements injective" `Quick test_placements_injective;
    Alcotest.test_case "gates on fast edges" `Quick test_gates_on_fast_edges;
    Alcotest.test_case "empty circuit" `Quick test_empty_circuit_program;
    Alcotest.test_case "lookahead sanity" `Quick test_lookahead_not_worse_much;
    Alcotest.test_case "fine-tune never hurts" `Quick test_fine_tune_never_hurts;
    Alcotest.test_case "boundary balancing" `Quick test_balance_boundaries;
    Alcotest.test_case "balancing conserves gates" `Quick test_balance_gate_conservation;
    Alcotest.test_case "option combinations" `Slow test_option_combinations;
    Alcotest.test_case "t2 override" `Quick test_with_t2_override;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "stats oracle bound (2s)" `Quick test_stats_oracle_bound;
    Alcotest.test_case "stats lookahead costs more" `Quick test_stats_lookahead_costs_more;
    QCheck_alcotest.to_alcotest qcheck_placed_random_circuits_route_correctly;
  ]
