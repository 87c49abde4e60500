(* Tests for the NMR-native rewriting (paper Section 2): every identity is
   checked against the simulator, and the rewrite must not change the
   placement instance. *)

module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Catalog = Qcp_circuit.Catalog

let equivalent a b =
  Unitary.equal_up_to_phase ~tol:1e-8 (Unitary.of_circuit a) (Unitary.of_circuit b)

let check_gate gate qubits =
  let direct = Circuit.make ~qubits [ gate ] in
  let native = Circuit.make ~qubits (Decompose.native_gate gate) in
  Alcotest.(check bool)
    (Gate.name gate ^ " identity")
    true (equivalent direct native)

let test_hadamard_identity () = check_gate (Gate.h 0) 1

let test_cnot_identity () =
  check_gate (Gate.cnot 0 1) 2;
  check_gate (Gate.cnot 1 0) 2

let test_cphase_identity () =
  List.iter (fun angle -> check_gate (Gate.cphase 0 1 angle) 2) [ 180.0; 90.0; 45.0; -60.0 ]

let test_swap_identity () = check_gate (Gate.swap 0 1) 2

let test_native_gates_pass_through () =
  (* Native gates decompose to themselves. *)
  List.iter
    (fun gate ->
      Alcotest.(check int) (Gate.name gate) 1 (List.length (Decompose.native_gate gate)))
    [ Gate.rx 0 90.0; Gate.ry 0 45.0; Gate.rz 0 30.0; Gate.zz 0 1 90.0 ]

let test_is_native () =
  Alcotest.(check bool) "qec3 native" true (Decompose.is_native Catalog.qec3_encode);
  Alcotest.(check bool) "qft not native" false (Decompose.is_native (Catalog.qft 3));
  Alcotest.(check bool) "to_native makes native" true
    (Decompose.is_native (Decompose.to_native (Catalog.qft 3)))

let test_to_native_circuits () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "circuit identity preserved" true
        (equivalent c (Decompose.to_native c)))
    [
      Catalog.qft 3;
      Catalog.qft 4;
      Catalog.phase_estimation 3;
      Qcp_circuit.Library.ghz 4;
      Circuit.make ~qubits:3 [ Gate.swap 0 2; Gate.h 1; Gate.cnot 2 1 ];
    ]

let test_interaction_invariant () =
  (* Paper: "such a rewriting operation does not change a particular
     instance of the associated placement problem". *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "interaction graph unchanged" true
        (Decompose.interaction_invariant c))
    [
      Catalog.qft 6; Catalog.steane_x1; Catalog.steane_x2;
      Qcp_circuit.Library.ghz 5; Qcp_circuit.Library.cuccaro_adder 3;
    ]

let test_custom_untouched () =
  let c = Circuit.make ~qubits:2 [ Gate.custom2 "U" 3.0 0 1 ] in
  Alcotest.(check bool) "custom preserved" true (Circuit.equal c (Decompose.to_native c))

let test_native_placement_agrees () =
  (* Placing the abstract or the rewritten circuit must choose placements of
     the same quality class (identical interaction structure). *)
  let env = Qcp_env.Molecules.trans_crotonic_acid in
  let abstract = Catalog.qft 5 in
  let native = Decompose.to_native abstract in
  let options = Qcp.Options.default ~threshold:100.0 in
  match (Qcp.Placer.place options env abstract, Qcp.Placer.place options env native) with
  | Qcp.Placer.Placed pa, Qcp.Placer.Placed pn ->
    Alcotest.(check int) "same subcircuit count"
      (Qcp.Placer.subcircuit_count pa)
      (Qcp.Placer.subcircuit_count pn);
    Alcotest.(check bool) "native program verified" true (Qcp.Verify.equivalent pn)
  | _ -> Alcotest.fail "both must place"

let qcheck_native_random_circuits =
  QCheck.Test.make ~name:"to_native preserves random circuits" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Qcp_util.Rng.create seed in
      let gates =
        List.init 10 (fun _ ->
            let a = Qcp_util.Rng.int rng 3 in
            let b = (a + 1 + Qcp_util.Rng.int rng 2) mod 3 in
            match Qcp_util.Rng.int rng 6 with
            | 0 -> Gate.h a
            | 1 -> Gate.cnot a b
            | 2 -> Gate.swap a b
            | 3 -> Gate.cphase a b (Qcp_util.Rng.float rng 180.0)
            | 4 -> Gate.ry a (Qcp_util.Rng.float rng 180.0)
            | _ -> Gate.zz a b 90.0)
      in
      let c = Circuit.make ~qubits:3 gates in
      equivalent c (Decompose.to_native c))

let suite =
  [
    Alcotest.test_case "hadamard identity" `Quick test_hadamard_identity;
    Alcotest.test_case "cnot identity" `Quick test_cnot_identity;
    Alcotest.test_case "cphase identity" `Quick test_cphase_identity;
    Alcotest.test_case "swap identity" `Quick test_swap_identity;
    Alcotest.test_case "native pass-through" `Quick test_native_gates_pass_through;
    Alcotest.test_case "is_native" `Quick test_is_native;
    Alcotest.test_case "to_native circuits" `Quick test_to_native_circuits;
    Alcotest.test_case "interaction invariance" `Quick test_interaction_invariant;
    Alcotest.test_case "custom untouched" `Quick test_custom_untouched;
    Alcotest.test_case "native placement agrees" `Quick test_native_placement_agrees;
    QCheck_alcotest.to_alcotest qcheck_native_random_circuits;
  ]
