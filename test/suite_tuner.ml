(* Tests for the Threshold auto-tuner and SWAP-network compression. *)

module Tuner = Qcp.Tuner
module Placer = Qcp.Placer
module Options = Qcp.Options
module Molecules = Qcp_env.Molecules
module Catalog = Qcp_circuit.Catalog
module Network = Qcp_route.Swap_network
module Perm = Qcp_route.Perm
module Gen = Qcp_graph.Generators

let test_candidates_cover_couplings () =
  let env = Molecules.acetyl_chloride in
  let candidates = Tuner.candidate_thresholds env in
  Alcotest.(check int) "three distinct couplings" 3 (List.length candidates);
  (* Each candidate sits just above a coupling value. *)
  List.iter2
    (fun candidate coupling ->
      Alcotest.(check bool) "just above" true
        (candidate > coupling && candidate -. coupling < 1e-6))
    candidates [ 38.0; 89.0; 672.0 ]

let test_sweep_shapes () =
  let env = Molecules.acetyl_chloride in
  let results = Tuner.sweep env Catalog.qec3_encode in
  Alcotest.(check int) "one outcome per candidate" 3 (List.length results);
  List.iter
    (fun (_, outcome) ->
      match outcome with
      | Placer.Placed _ -> ()
      | Placer.Unplaceable _ -> Alcotest.fail "acetyl always placeable here")
    results

let test_auto_place_at_least_as_good () =
  (* The tuner can only do as well or better than any fixed threshold. *)
  List.iter
    (fun (env, circuit) ->
      match Tuner.auto_place env circuit with
      | Placer.Unplaceable msg -> Alcotest.failf "auto unplaceable: %s" msg
      | Placer.Placed best ->
        let auto_runtime = Placer.runtime best in
        List.iter
          (fun threshold ->
            match Placer.place (Options.default ~threshold) env circuit with
            | Placer.Unplaceable _ -> ()
            | Placer.Placed p ->
              Alcotest.(check bool)
                (Printf.sprintf "auto %.0f <= fixed(%g) %.0f" auto_runtime
                   threshold (Placer.runtime p))
                true
                (auto_runtime <= Placer.runtime p +. 1e-9))
          [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ])
    [
      (Molecules.acetyl_chloride, Catalog.qec3_encode);
      (Molecules.trans_crotonic_acid, Catalog.qft 6);
      (Molecules.boc_glycine_fluoride, Catalog.phase_estimation 4);
    ]

let test_auto_place_iron () =
  (* The iron complex is placeable above 130 units only; the tuner must find
     a working threshold by itself. *)
  match Tuner.auto_place Molecules.iron_complex (Catalog.phase_estimation 4) with
  | Placer.Placed p ->
    Alcotest.(check bool) "verified" true (Qcp.Verify.equivalent ~inputs:[ 0; 3 ] p)
  | Placer.Unplaceable msg -> Alcotest.failf "tuner failed: %s" msg

let test_auto_place_impossible () =
  (* A 6-qubit circuit cannot fit a 3-nucleus molecule at any threshold. *)
  match Tuner.auto_place Molecules.acetyl_chloride (Catalog.qft 6) with
  | Placer.Unplaceable _ -> ()
  | Placer.Placed _ -> Alcotest.fail "expected Unplaceable"

(* [auto_place] is [best] over [sweep]: same threshold, stages and
   runtime, or the same failure; with [portfolio] set too, which is what
   [qcp place --auto-threshold --portfolio] runs. *)
let test_best_of_sweep () =
  List.iter
    (fun (env, circuit, portfolio) ->
      let options ~threshold =
        { (Options.default ~threshold) with Options.portfolio; jobs = 0 }
      in
      match
        ( Tuner.best (Tuner.sweep ~jobs:0 ~options env circuit),
          Tuner.auto_place ~jobs:0 ~options env circuit )
      with
      | Placer.Placed a, Placer.Placed b ->
        Alcotest.(check (float 0.0)) "same threshold"
          a.Placer.options.Options.threshold b.Placer.options.Options.threshold;
        Alcotest.(check bool) "same stages" true
          (a.Placer.stages = b.Placer.stages);
        Alcotest.(check bool) "same runtime" true
          (Placer.runtime a = Placer.runtime b)
      | Placer.Unplaceable a, Placer.Unplaceable b ->
        Alcotest.(check string) "same failure" a b
      | _ -> Alcotest.fail "best of the sweep and auto_place disagree")
    [
      (Molecules.trans_crotonic_acid, Catalog.qft 6, false);
      (Molecules.iron_complex, Catalog.phase_estimation 4, false);
      (Molecules.acetyl_chloride, Catalog.qft 6, false);
      (Molecules.acetyl_chloride, Catalog.qec3_encode, true);
    ]

(* --------------------------- compression -------------------------- *)

let test_compress_identity_cases () =
  Alcotest.(check int) "empty" 0 (List.length (Network.compress []));
  let dense = [ [ (0, 1); (2, 3) ]; [ (1, 2) ] ] in
  Alcotest.(check int) "already dense" 2 (List.length (Network.compress dense))

let test_compress_packs_sparse_levels () =
  (* Three singleton levels on disjoint vertices pack into one. *)
  let sparse = [ [ (0, 1) ]; [ (2, 3) ]; [ (4, 5) ] ] in
  Alcotest.(check int) "packed" 1 (List.length (Network.compress sparse))

let test_compress_preserves_order_of_conflicts () =
  (* Overlapping swaps must stay ordered; compression cannot reorder them. *)
  let net = [ [ (0, 1) ]; [ (1, 2) ]; [ (0, 1) ] ] in
  let compressed = Network.compress net in
  Alcotest.(check int) "still three levels" 3 (List.length compressed);
  let n = 3 in
  let before = Network.apply net (Array.init n (fun v -> v)) in
  let after = Network.apply compressed (Array.init n (fun v -> v)) in
  Alcotest.(check (array int)) "same action" before after

let qcheck_compress_preserves_action =
  QCheck.Test.make ~name:"compression preserves the network's action" ~count:80
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:(n / 2) in
      let edges = Array.of_list (Qcp_graph.Graph.edges g) in
      (* A random valid network: random single-swap levels. *)
      let net =
        List.init (2 * n) (fun _ -> [ Qcp_util.Rng.pick rng edges ])
      in
      let compressed = Network.compress net in
      let id = Array.init n (fun v -> v) in
      Network.apply net id = Network.apply compressed id
      && Network.depth compressed <= Network.depth net
      && Network.is_valid g compressed)

let qcheck_router_output_compressed =
  QCheck.Test.make ~name:"router emits compressed networks" ~count:40
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let g = Gen.random_connected rng ~n ~extra_edges:3 in
      let perm = Perm.random rng n in
      let net = Qcp_route.Bisect_router.route g ~perm in
      Network.realizes net ~perm
      && Network.depth (Network.compress net) = Network.depth net)

let suite =
  [
    Alcotest.test_case "candidate thresholds" `Quick test_candidates_cover_couplings;
    Alcotest.test_case "sweep shapes" `Quick test_sweep_shapes;
    Alcotest.test_case "auto >= any fixed threshold" `Quick test_auto_place_at_least_as_good;
    Alcotest.test_case "auto on iron complex" `Quick test_auto_place_iron;
    Alcotest.test_case "auto impossible" `Quick test_auto_place_impossible;
    Alcotest.test_case "auto = best of sweep" `Quick test_best_of_sweep;
    Alcotest.test_case "compress identity cases" `Quick test_compress_identity_cases;
    Alcotest.test_case "compress packs sparse" `Quick test_compress_packs_sparse_levels;
    Alcotest.test_case "compress keeps conflicts ordered" `Quick
      test_compress_preserves_order_of_conflicts;
    QCheck_alcotest.to_alcotest qcheck_compress_preserves_action;
    QCheck_alcotest.to_alcotest qcheck_router_output_compressed;
  ]
