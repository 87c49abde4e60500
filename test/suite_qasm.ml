(* Tests for the OpenQASM 2.0 subset: parsing, printing, angle expressions,
   and semantic round-trips through the simulator. *)

module Qasm = Qcp_circuit.Qasm
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate

let equivalent a b =
  Unitary.equal_up_to_phase ~tol:1e-6 (Unitary.of_circuit a) (Unitary.of_circuit b)

let test_parse_minimal () =
  let c =
    Qasm.parse
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
  in
  Alcotest.(check int) "qubits" 2 (Circuit.qubits c);
  Alcotest.(check int) "gates" 2 (Circuit.gate_count c);
  match Circuit.gates c with
  | [ Gate.G1 (Gate.Hadamard, 0); Gate.G2 (Gate.Cnot, 0, 1) ] -> ()
  | _ -> Alcotest.fail "unexpected gate list"

let test_parse_angles () =
  let c =
    Qasm.parse
      "qreg q[1];\nrz(pi) q[0];\nrx(pi/2) q[0];\nry(3*pi/4) q[0];\nrz(-pi/4) q[0];\nrz(0.5) q[0];\n"
  in
  match Circuit.gates c with
  | [
   Gate.G1 (Gate.Rotation (Gate.Z, a1), 0);
   Gate.G1 (Gate.Rotation (Gate.X, a2), 0);
   Gate.G1 (Gate.Rotation (Gate.Y, a3), 0);
   Gate.G1 (Gate.Rotation (Gate.Z, a4), 0);
   Gate.G1 (Gate.Rotation (Gate.Z, a5), 0);
  ] ->
    Helpers.check_close ~eps:1e-9 "pi" 180.0 a1;
    Helpers.check_close ~eps:1e-9 "pi/2" 90.0 a2;
    Helpers.check_close ~eps:1e-9 "3*pi/4" 135.0 a3;
    Helpers.check_close ~eps:1e-9 "-pi/4" (-45.0) a4;
    Helpers.check_close ~eps:1e-6 "0.5 rad" (0.5 *. 180.0 /. Float.pi) a5
  | _ -> Alcotest.fail "unexpected gates"

let test_parse_aliases () =
  let c =
    Qasm.parse
      "qreg r[3];\nx r[0];\ny r[1];\nz r[2];\nt r[0];\ntdg r[1];\ns r[2];\nsdg r[0];\ncz r[0],r[1];\ncp(pi/8) r[1],r[2];\nswap r[0],r[2];\nrzz(pi/2) r[0],r[1];\n"
  in
  Alcotest.(check int) "all parsed" 11 (Circuit.gate_count c)

let test_parse_ignores () =
  let c =
    Qasm.parse
      "OPENQASM 2.0; // header\nqreg q[2];\ncreg c[2];\nh q[0]; // hadamard\nbarrier q[0];\nmeasure q[0];\n"
  in
  Alcotest.(check int) "only the gate" 1 (Circuit.gate_count c)

let test_parse_comment_after_angle () =
  let c = Qasm.parse "qreg q[1];\nrz(pi/2) q[0]; // a pi/2 phase\n" in
  Alcotest.(check int) "parsed" 1 (Circuit.gate_count c)

let test_parse_errors () =
  let expect text =
    match Qasm.parse text with
    | exception Qasm.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect "h q[0];";
  expect "qreg q[2];\nfrobnicate q[0];";
  expect "qreg q[2];\nrx q[0];";
  expect "qreg q[2];\ncx q[0];";
  expect "qreg q[2];\nh p[0];"

let test_print_parse_roundtrip () =
  List.iter
    (fun c ->
      let text = Qasm.print c in
      let back = Qasm.parse text in
      Alcotest.(check int) "qubit count" (Circuit.qubits c) (Circuit.qubits back);
      Alcotest.(check bool) "unitary preserved" true (equivalent c back))
    [
      Qcp_circuit.Catalog.qft 3;
      Qcp_circuit.Catalog.qec3_encode;
      Qcp_circuit.Library.ghz 4;
      Circuit.make ~qubits:3
        [ Gate.swap 0 2; Gate.zz 0 1 37.5; Gate.cphase 1 2 (-22.5); Gate.rx 0 10.0 ];
    ]

let test_print_custom_as_comment () =
  let c = Circuit.make ~qubits:2 [ Gate.custom2 "U" 3.0 0 1 ] in
  let text = Qasm.print c in
  Alcotest.(check bool) "commented" true (Helpers.contains ~needle:"// custom2 U" text)

let test_qasm_to_placement () =
  (* End to end: parse QASM, place it, verify. *)
  let qasm =
    "OPENQASM 2.0;\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\nrz(pi/4) q[3];\ncx q[2],q[3];\n"
  in
  let circuit = Qasm.parse qasm in
  let env = Qcp_env.Molecules.trans_crotonic_acid in
  match Qcp.Placer.place (Qcp.Options.default ~threshold:100.0) env circuit with
  | Qcp.Placer.Placed p ->
    Alcotest.(check bool) "verified" true (Qcp.Verify.equivalent ~inputs:[ 0; 5; 15 ] p)
  | Qcp.Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg

let suite =
  [
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "parse angles" `Quick test_parse_angles;
    Alcotest.test_case "parse aliases" `Quick test_parse_aliases;
    Alcotest.test_case "parse ignores non-unitary" `Quick test_parse_ignores;
    Alcotest.test_case "comment after angle" `Quick test_parse_comment_after_angle;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
    Alcotest.test_case "custom as comment" `Quick test_print_custom_as_comment;
    Alcotest.test_case "qasm to placement" `Quick test_qasm_to_placement;
  ]
