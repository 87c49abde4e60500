(* Tests for whole-circuit placement baselines. *)

module Baselines = Qcp.Baselines
module Molecules = Qcp_env.Molecules
module Environment = Qcp_env.Environment
module Catalog = Qcp_circuit.Catalog

let test_evaluate_known_mappings () =
  (* The two placements of the paper's Example 3. *)
  let env = Molecules.acetyl_chloride in
  Helpers.check_close "bad mapping" 770.0
    (Baselines.evaluate env Catalog.qec3_encode ~placement:[| 0; 2; 1 |]);
  Helpers.check_close "optimal mapping" 136.0
    (Baselines.evaluate env Catalog.qec3_encode ~placement:[| 2; 1; 0 |])

let test_exhaustive_small () =
  let env = Molecules.acetyl_chloride in
  match Baselines.exhaustive env Catalog.qec3_encode with
  | None -> Alcotest.fail "3! = 6 placements is affordable"
  | Some (placement, cost) ->
    Helpers.check_close "optimum 136" 136.0 cost;
    Alcotest.(check (array int)) "Example 3 optimal" [| 2; 1; 0 |] placement

let test_exhaustive_limit () =
  (* 12!/2! is way past any reasonable limit. *)
  let env = Molecules.histidine in
  Alcotest.(check bool) "refuses huge spaces" true
    (Baselines.exhaustive ~limit:1000 env (Catalog.cat_state 10) = None)

let test_hill_climb_improves () =
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qec5_encode in
  let rng = Qcp_util.Rng.create 3 in
  let init = Baselines.random_placement rng env circuit in
  let start_cost = Baselines.evaluate env circuit ~placement:init in
  let _, final_cost = Baselines.hill_climb env circuit ~init in
  Alcotest.(check bool) "no worse than start" true (final_cost <= start_cost +. 1e-9)

let test_hill_climb_reaches_exhaustive_on_small () =
  let env = Molecules.acetyl_chloride in
  let circuit = Catalog.qec3_encode in
  let _, best = Baselines.whole_best env circuit in
  Helpers.check_close "whole_best finds 136" 136.0 best

let test_whole_best_matches_exhaustive_qec5 () =
  (* 7!/2! = 2520: exhaustive is affordable; whole_best must use it. *)
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qec5_encode in
  match Baselines.exhaustive env circuit with
  | None -> Alcotest.fail "2520 placements is affordable"
  | Some (_, opt) ->
    let _, best = Baselines.whole_best env circuit in
    Helpers.check_close "agrees" opt best

let test_random_placement_valid () =
  let rng = Qcp_util.Rng.create 1 in
  let env = Molecules.histidine in
  for _ = 1 to 20 do
    let p = Baselines.random_placement rng env (Catalog.cat_state 10) in
    let sorted = Array.to_list p |> List.sort_uniq compare in
    Alcotest.(check int) "injective" 10 (List.length sorted);
    List.iter
      (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 12))
      sorted
  done

let test_heuristic_close_to_exhaustive () =
  (* On instances the exhaustive baseline can solve, the heuristic placer's
     single-workspace result must match the optimum (Table 2's claim). *)
  let check env circuit threshold =
    match Baselines.exhaustive env circuit with
    | None -> Alcotest.fail "expected exhaustive to run"
    | Some (_, opt) -> (
      match Qcp.Placer.place (Qcp.Options.default ~threshold) env circuit with
      | Qcp.Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg
      | Qcp.Placer.Placed p ->
        let heuristic = Qcp.Placer.runtime p in
        Alcotest.(check bool)
          (Printf.sprintf "heuristic %.0f vs optimal %.0f" heuristic opt)
          true
          (heuristic <= opt +. 1e-9))
  in
  check Molecules.acetyl_chloride Catalog.qec3_encode 100.0;
  check Molecules.trans_crotonic_acid Catalog.qec5_encode 100.0

let test_lower_bound_below_everything () =
  let paper = Qcp.Options.default ~threshold:200.0 in
  (* Table 4's chain:8 row (seed 2007 + 8, fast options at threshold 50):
     greedy places it at 870, below the uncapped bound of 1,050. *)
  let chain8 =
    let rng = Qcp_util.Rng.create 2015 in
    fst (Qcp_circuit.Random_circuit.hidden_stages rng ~n:8)
  in
  List.iter
    (fun (env, circuit, options) ->
      let lb =
        Baselines.lower_bound ?reuse_cap:options.Qcp.Options.reuse_cap env
          circuit
      in
      Alcotest.(check bool) "positive" true (lb > 0.0);
      (match Baselines.exhaustive env circuit with
      | Some (_, opt) ->
        Alcotest.(check bool)
          (Printf.sprintf "lb %.0f <= optimum %.0f" lb opt)
          true (lb <= opt +. 1e-9)
      | None -> ());
      match Qcp.Placer.place options env circuit with
      | Qcp.Placer.Placed p ->
        let runtime = Qcp.Placer.runtime p in
        Alcotest.(check bool)
          (Printf.sprintf "lb %.0f <= placed runtime %.0f" lb runtime)
          true
          (lb <= runtime +. 1e-9)
      | Qcp.Placer.Unplaceable _ -> ())
    [
      (Molecules.acetyl_chloride, Catalog.qec3_encode, paper);
      (Molecules.trans_crotonic_acid, Catalog.qec5_encode, paper);
      (Molecules.trans_crotonic_acid, Catalog.qft 6, paper);
      (Molecules.boc_glycine_fluoride, Catalog.phase_estimation 4, paper);
      (Environment.chain 8, chain8, Qcp.Options.fast ~threshold:50.0);
    ]

let qcheck_exhaustive_beats_random =
  QCheck.Test.make ~name:"exhaustive optimum <= any random placement" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Qcp_util.Rng.create seed in
      let env = Molecules.acetyl_chloride in
      let circuit = Catalog.qec3_encode in
      match Baselines.exhaustive env circuit with
      | None -> false
      | Some (_, opt) ->
        let p = Baselines.random_placement rng env circuit in
        opt <= Baselines.evaluate env circuit ~placement:p +. 1e-9)

let suite =
  [
    Alcotest.test_case "evaluate Example 3 mappings" `Quick test_evaluate_known_mappings;
    Alcotest.test_case "exhaustive small" `Quick test_exhaustive_small;
    Alcotest.test_case "exhaustive limit" `Quick test_exhaustive_limit;
    Alcotest.test_case "hill climb improves" `Quick test_hill_climb_improves;
    Alcotest.test_case "whole_best small optimum" `Quick test_hill_climb_reaches_exhaustive_on_small;
    Alcotest.test_case "whole_best = exhaustive (qec5)" `Quick
      test_whole_best_matches_exhaustive_qec5;
    Alcotest.test_case "random placement valid" `Quick test_random_placement_valid;
    Alcotest.test_case "heuristic matches optimum (Table 2)" `Quick
      test_heuristic_close_to_exhaustive;
    Alcotest.test_case "lower bound below everything" `Quick
      test_lower_bound_below_everything;
    QCheck_alcotest.to_alcotest qcheck_exhaustive_beats_random;
  ]
