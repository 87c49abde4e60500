(* Tests for circuit identities, commutation and the DAG (Transform, Dag) —
   the paper's "further research" direction implemented as a pre-pass. *)

module Gate = Qcp_circuit.Gate
module Circuit = Qcp_circuit.Circuit
module Transform = Qcp_circuit.Transform
module Dag = Qcp_circuit.Dag

let circuit gates = Circuit.make ~qubits:4 gates

let unitary_equal a b =
  Unitary.equal_up_to_phase ~tol:1e-8 (Unitary.of_circuit a) (Unitary.of_circuit b)

let test_commutes_disjoint () =
  Alcotest.(check bool) "disjoint" true
    (Transform.commutes (Gate.h 0) (Gate.cnot 1 2));
  Alcotest.(check bool) "shared" false
    (Transform.commutes (Gate.h 0) (Gate.cnot 0 2))

let test_commutes_diagonal () =
  Alcotest.(check bool) "rz zz" true
    (Transform.commutes (Gate.rz 0 45.0) (Gate.zz 0 1 90.0));
  Alcotest.(check bool) "zz zz shared" true
    (Transform.commutes (Gate.zz 0 1 90.0) (Gate.zz 1 2 90.0));
  Alcotest.(check bool) "cphase zz" true
    (Transform.commutes (Gate.cphase 0 1 45.0) (Gate.zz 1 2 90.0));
  Alcotest.(check bool) "rx zz shared" false
    (Transform.commutes (Gate.rx 1 90.0) (Gate.zz 1 2 90.0))

let test_commutes_same_axis () =
  Alcotest.(check bool) "rx rx same qubit" true
    (Transform.commutes (Gate.rx 0 30.0) (Gate.rx 0 60.0));
  Alcotest.(check bool) "rx ry same qubit" false
    (Transform.commutes (Gate.rx 0 30.0) (Gate.ry 0 60.0));
  Alcotest.(check bool) "identical gates" true
    (Transform.commutes (Gate.cnot 0 1) (Gate.cnot 0 1))

let test_commutes_sound () =
  (* Soundness spot-check against the simulator: whenever [commutes] says
     yes, the two-gate circuits in both orders are equal. *)
  let gates =
    [
      Gate.h 0; Gate.rx 0 70.0; Gate.ry 1 30.0; Gate.rz 1 45.0;
      Gate.zz 0 1 90.0; Gate.zz 1 2 60.0; Gate.cnot 0 1; Gate.cphase 2 3 30.0;
      Gate.swap 1 2;
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Transform.commutes a b then
            Alcotest.(check bool)
              (Printf.sprintf "%s <-> %s" (Gate.name a) (Gate.name b))
              true
              (unitary_equal (circuit [ a; b ]) (circuit [ b; a ])))
        gates)
    gates

let test_merge_same_axis () =
  let merged = Transform.merge_rotations (circuit [ Gate.rz 0 30.0; Gate.rz 0 60.0 ]) in
  Alcotest.(check int) "one gate" 1 (Circuit.gate_count merged);
  match Circuit.gates merged with
  | [ Gate.G1 (Gate.Rotation (Gate.Z, angle), 0) ] ->
    Helpers.check_close "summed" 90.0 angle
  | _ -> Alcotest.fail "expected a single Rz"

let test_merge_cancels () =
  let merged =
    Transform.merge_rotations (circuit [ Gate.rx 0 90.0; Gate.rx 0 (-90.0) ])
  in
  Alcotest.(check int) "cancelled" 0 (Circuit.gate_count merged);
  let cnots = Transform.merge_rotations (circuit [ Gate.cnot 0 1; Gate.cnot 0 1 ]) in
  Alcotest.(check int) "cnot pair" 0 (Circuit.gate_count cnots);
  let swaps = Transform.merge_rotations (circuit [ Gate.swap 0 1; Gate.swap 1 0 ]) in
  Alcotest.(check int) "swap pair" 0 (Circuit.gate_count swaps)

let test_merge_across_commuting () =
  (* ZZ(45) Rz ZZ(45) on the same pair: the Rz commutes, the ZZs fuse. *)
  let merged =
    Transform.merge_rotations
      (circuit [ Gate.zz 0 1 45.0; Gate.rz 0 30.0; Gate.zz 0 1 45.0 ])
  in
  Alcotest.(check int) "two gates" 2 (Circuit.gate_count merged);
  Alcotest.(check bool) "zz 90 present" true
    (List.exists
       (fun g -> match g with Gate.G2 (Gate.ZZ a, _, _) -> a = 90.0 | _ -> false)
       (Circuit.gates merged))

let test_merge_blocked () =
  (* An Rx between two Rz on the same qubit blocks merging. *)
  let c = circuit [ Gate.rz 0 30.0; Gate.rx 0 90.0; Gate.rz 0 60.0 ] in
  let merged = Transform.merge_rotations c in
  Alcotest.(check int) "unchanged" 3 (Circuit.gate_count merged)

let test_merge_preserves_unitary () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "unitary preserved" true
        (unitary_equal c (Transform.merge_rotations c)))
    [
      circuit [ Gate.zz 0 1 45.0; Gate.rz 0 30.0; Gate.zz 0 1 45.0 ];
      circuit [ Gate.h 0; Gate.cnot 0 1; Gate.cnot 0 1; Gate.h 0 ];
      Qcp_circuit.Catalog.qft 4;
      Qcp_circuit.Catalog.qec3_encode |> fun c ->
      Circuit.make ~qubits:4 (Circuit.gates c);
    ]

let test_pack_groups_pairs () =
  (* Diagonal gates on alternating pairs regroup by pair, enabling fusion. *)
  let c =
    circuit [ Gate.zz 0 1 90.0; Gate.zz 1 2 90.0; Gate.zz 0 1 90.0 ]
  in
  let packed = Transform.pack_interactions c in
  (match Circuit.gates packed with
  | [ g1; g2; g3 ] ->
    Alcotest.(check bool) "same-pair gates adjacent" true
      (Gate.qubits g1 = Gate.qubits g2 || Gate.qubits g2 = Gate.qubits g3)
  | _ -> Alcotest.fail "gate count changed");
  Alcotest.(check bool) "unitary preserved" true (unitary_equal c packed);
  (* After packing, merging fuses the reunited pair. *)
  let optimized = Transform.optimize_for_placement c in
  Alcotest.(check int) "fused" 2 (Circuit.gate_count optimized)

let test_pack_respects_order () =
  (* Non-commuting gates keep their relative order. *)
  let c = circuit [ Gate.h 0; Gate.cnot 0 1; Gate.h 1 ] in
  let packed = Transform.pack_interactions c in
  Alcotest.(check bool) "unitary preserved" true (unitary_equal c packed)

let test_optimize_qft () =
  let c = Qcp_circuit.Catalog.qft 5 in
  let optimized = Transform.optimize_for_placement c in
  Alcotest.(check bool) "unitary preserved" true (unitary_equal c optimized);
  Alcotest.(check bool) "no growth" true
    (Circuit.gate_count optimized <= Circuit.gate_count c)

let test_dag_chain () =
  let c = circuit [ Gate.h 0; Gate.cnot 0 1; Gate.h 1 ] in
  let dag = Dag.build c in
  Alcotest.(check (list int)) "gate 1 depends on 0" [ 0 ] (Dag.preds dag 1);
  Alcotest.(check (list int)) "gate 2 depends on 1" [ 1 ] (Dag.preds dag 2);
  Alcotest.(check (list int)) "gate 0 has successor" [ 1 ] (Dag.succs dag 0)

let test_dag_commute_aware () =
  let c = circuit [ Gate.rz 0 30.0; Gate.zz 0 1 90.0 ] in
  let strict = Dag.build c in
  Alcotest.(check (list int)) "strict dependency" [ 0 ] (Dag.preds strict 1);
  let relaxed = Dag.build ~commute:Transform.commutes c in
  Alcotest.(check (list int)) "commuting gates independent" [] (Dag.preds relaxed 1)

let test_dag_reorder () =
  let c = circuit [ Gate.h 0; Gate.h 1; Gate.cnot 0 1 ] in
  let dag = Dag.build c in
  Alcotest.(check bool) "valid order" true (Dag.is_valid_order dag [ 1; 0; 2 ]);
  Alcotest.(check bool) "invalid order" false (Dag.is_valid_order dag [ 2; 0; 1 ]);
  let reordered = Dag.reorder dag [ 1; 0; 2 ] in
  Alcotest.(check bool) "unitary preserved" true (unitary_equal c reordered)

let test_commute_prepass_placement () =
  (* The full pipeline with the pre-pass stays semantically correct and does
     not blow up the runtime. *)
  let env = Qcp_env.Molecules.trans_crotonic_acid in
  let c = Qcp_circuit.Catalog.qft 5 in
  let base = Qcp.Options.default ~threshold:100.0 in
  let with_pass = { base with Qcp.Options.commute_prepass = true } in
  match (Qcp.Placer.place base env c, Qcp.Placer.place with_pass env c) with
  | Qcp.Placer.Placed p0, Qcp.Placer.Placed p1 ->
    Alcotest.(check bool) "prepass program verified" true (Qcp.Verify.equivalent p1);
    let r0 = Qcp.Placer.runtime p0 and r1 = Qcp.Placer.runtime p1 in
    Alcotest.(check bool)
      (Printf.sprintf "prepass %.0f vs plain %.0f" r1 r0)
      true
      (r1 <= r0 *. 1.5)
  | _ -> Alcotest.fail "both must place"

let random_diagonalish_circuit seed =
  let rng = Qcp_util.Rng.create seed in
  let gates =
    List.init 12 (fun _ ->
        let a = Qcp_util.Rng.int rng 4 in
        let b = (a + 1 + Qcp_util.Rng.int rng 3) mod 4 in
        match Qcp_util.Rng.int rng 5 with
        | 0 -> Gate.rz a (Qcp_util.Rng.float rng 180.0)
        | 1 -> Gate.zz a b (Qcp_util.Rng.float rng 180.0)
        | 2 -> Gate.h a
        | 3 -> Gate.cnot a b
        | _ -> Gate.ry a (Qcp_util.Rng.float rng 180.0))
  in
  circuit gates

let qcheck_merge_preserves_unitary =
  QCheck.Test.make ~name:"merge_rotations preserves the unitary" ~count:40
    QCheck.small_int
    (fun seed ->
      let c = random_diagonalish_circuit seed in
      unitary_equal c (Transform.merge_rotations c))

let qcheck_pack_preserves_unitary =
  QCheck.Test.make ~name:"pack_interactions preserves the unitary" ~count:40
    QCheck.small_int
    (fun seed ->
      let c = random_diagonalish_circuit seed in
      unitary_equal c (Transform.pack_interactions c))

let qcheck_optimize_never_grows =
  QCheck.Test.make ~name:"optimize_for_placement never adds gates" ~count:60
    QCheck.small_int
    (fun seed ->
      let c = random_diagonalish_circuit seed in
      Circuit.gate_count (Transform.optimize_for_placement c) <= Circuit.gate_count c)

let suite =
  [
    Alcotest.test_case "commutes disjoint" `Quick test_commutes_disjoint;
    Alcotest.test_case "commutes diagonal" `Quick test_commutes_diagonal;
    Alcotest.test_case "commutes same axis" `Quick test_commutes_same_axis;
    Alcotest.test_case "commutes is sound" `Quick test_commutes_sound;
    Alcotest.test_case "merge same axis" `Quick test_merge_same_axis;
    Alcotest.test_case "merge cancels" `Quick test_merge_cancels;
    Alcotest.test_case "merge across commuting" `Quick test_merge_across_commuting;
    Alcotest.test_case "merge blocked" `Quick test_merge_blocked;
    Alcotest.test_case "merge preserves unitary" `Quick test_merge_preserves_unitary;
    Alcotest.test_case "pack groups pairs" `Quick test_pack_groups_pairs;
    Alcotest.test_case "pack respects order" `Quick test_pack_respects_order;
    Alcotest.test_case "optimize qft" `Quick test_optimize_qft;
    Alcotest.test_case "dag chain" `Quick test_dag_chain;
    Alcotest.test_case "dag commute-aware" `Quick test_dag_commute_aware;
    Alcotest.test_case "dag reorder" `Quick test_dag_reorder;
    Alcotest.test_case "commute pre-pass placement" `Quick test_commute_prepass_placement;
    QCheck_alcotest.to_alcotest qcheck_merge_preserves_unitary;
    QCheck_alcotest.to_alcotest qcheck_pack_preserves_unitary;
    QCheck_alcotest.to_alcotest qcheck_optimize_never_grows;
  ]
