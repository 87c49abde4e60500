(* Tests for qcp_sim: state-vector mechanics, gate semantics (including the
   paper's Section 2 identities) and unitary equivalence checking. *)

module Gate = Qcp_circuit.Gate
module Circuit = Qcp_circuit.Circuit
module Catalog = Qcp_circuit.Catalog
module Statevec = Qcp_sim.Statevec

let amp_close a b = Complex.norm (Complex.sub a b) < 1e-9

let test_basis_states () =
  let s = Statevec.basis ~n:2 2 in
  let amps = Statevec.amplitudes s in
  Alcotest.(check bool) "amp at 2" true (amp_close amps.(2) Complex.one);
  Alcotest.(check bool) "amp at 0" true (amp_close amps.(0) Complex.zero);
  Helpers.check_close "normalized" 1.0 (Statevec.norm s)

let test_x_gate_flips () =
  (* Rx(180) = -iX: flips the basis state up to phase. *)
  let s = Statevec.apply (Gate.rx 0 180.0) (Statevec.zero 1) in
  let p = Statevec.probabilities s in
  Helpers.check_close "P(1)" 1.0 p.(1);
  Helpers.check_close "P(0)" 0.0 p.(0)

let test_hadamard () =
  let s = Statevec.apply (Gate.h 0) (Statevec.zero 1) in
  let p = Statevec.probabilities s in
  Helpers.check_close ~eps:1e-9 "P(0)=1/2" 0.5 p.(0);
  Helpers.check_close ~eps:1e-9 "P(1)=1/2" 0.5 p.(1)

let test_cnot_truth_table () =
  List.iter
    (fun (input, expected) ->
      let s = Statevec.apply (Gate.cnot 0 1) (Statevec.basis ~n:2 input) in
      let p = Statevec.probabilities s in
      Helpers.check_close (Printf.sprintf "cnot |%d>" input) 1.0 p.(expected))
    (* qubit 0 = control = low bit; |ba> index = 2b + a *)
    [ (0, 0); (1, 3); (2, 2); (3, 1) ]

let test_swap_gate () =
  let s = Statevec.apply (Gate.swap 0 1) (Statevec.basis ~n:2 1) in
  let p = Statevec.probabilities s in
  Helpers.check_close "swap moves excitation" 1.0 p.(2)

let test_bell_state () =
  let c = Circuit.make ~qubits:2 [ Gate.h 0; Gate.cnot 0 1 ] in
  let s = Statevec.run c (Statevec.zero 2) in
  let p = Statevec.probabilities s in
  Helpers.check_close "P(00)" 0.5 p.(0);
  Helpers.check_close "P(11)" 0.5 p.(3);
  Helpers.check_close "P(01)" 0.0 p.(1)

let test_rz_phase_only () =
  let plus = Statevec.apply (Gate.h 0) (Statevec.zero 1) in
  let s = Statevec.apply (Gate.rz 0 123.0) plus in
  let p = Statevec.probabilities s in
  Helpers.check_close "Rz keeps probabilities" 0.5 p.(0)

let test_zz_vs_cphase () =
  (* CP(theta) = e^{i theta/4} Rz_a(theta/2) Rz_b(theta/2) ZZ(-theta/2):
     check they are phase-equivalent as two-qubit unitaries. *)
  let theta = 73.0 in
  let via_cphase = Circuit.make ~qubits:2 [ Gate.cphase 0 1 theta ] in
  let via_zz =
    Circuit.make ~qubits:2
      [ Gate.zz 0 1 (-.theta /. 2.0); Gate.rz 0 (theta /. 2.0); Gate.rz 1 (theta /. 2.0) ]
  in
  Alcotest.(check bool) "cphase = zz + local rz" true
    (Unitary.equal_up_to_phase (Unitary.of_circuit via_cphase)
       (Unitary.of_circuit via_zz))

let test_cnot_from_zz () =
  (* The paper's Section 2 remark: ZZ(90) equals CNOT up to single-qubit
     rotations.  CNOT = H_t CZ H_t with CZ = Rz_c(90) Rz_t(90) ZZ(-90) up to
     a global phase. *)
  let decomposed =
    Circuit.make ~qubits:2
      [
        Gate.h 1;
        Gate.zz 0 1 (-90.0);
        Gate.rz 0 90.0;
        Gate.rz 1 90.0;
        Gate.h 1;
      ]
  in
  let direct = Circuit.make ~qubits:2 [ Gate.cnot 0 1 ] in
  Alcotest.(check bool) "ising decomposition of CNOT" true
    (Unitary.equal_up_to_phase
       (Unitary.of_circuit decomposed)
       (Unitary.of_circuit direct))

let test_qft_unitary_matrix () =
  (* The 2-qubit QFT matrix from the paper's Section 2 (equation 1), up to
     the bit-reversal output permutation that Catalog.qft omits. *)
  let u = Unitary.of_circuit (Catalog.qft 2) in
  let reversal = Unitary.of_qubit_permutation ~n:2 [| 1; 0 |] in
  (* The swap-free QFT circuit equals the DFT up to a bit-reversal qubit
     permutation (free for the paper): U = F . R, so F = U . R. *)
  let corrected = Unitary.mul u reversal in
  let omega = Complex.i in
  let entry r c =
    (* QFT matrix: (1/2) * omega^(r*c) with omega = i for dimension 4. *)
    let rec pow z k = if k = 0 then Complex.one else Complex.mul z (pow z (k - 1)) in
    Complex.mul { Complex.re = 0.5; im = 0.0 } (pow omega (r * c mod 4))
  in
  (* Compare with a global-phase-tolerant distance by building the target. *)
  let dim = 4 in
  let max_diff = ref 0.0 in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      let diff = Complex.norm (Complex.sub (Unitary.entry corrected r c) (entry r c)) in
      max_diff := Float.max !max_diff diff
    done
  done;
  Alcotest.(check bool) "QFT2 matches equation (1)" true (!max_diff < 1e-9)

let test_qft_on_basis_state () =
  (* The paper's Section 2 example: QFT2 |10> = (1/2)(|00> - |01> + |10> - |11>)
     in the paper's qubit ordering. *)
  let u = Unitary.of_circuit (Catalog.qft 2) in
  let reversal = Unitary.of_qubit_permutation ~n:2 [| 1; 0 |] in
  let corrected = Unitary.mul u reversal in
  (* Paper's |10> is binary 10 = index 2 in the DFT input ordering; output
     (1/2)(|00> - |01> + |10> - |11>) lists amplitudes for indices 0..3. *)
  let col = 2 in
  let expected = [| 0.5; -0.5; 0.5; -0.5 |] in
  Array.iteri
    (fun row value ->
      let got = Unitary.entry corrected row col in
      Helpers.check_close (Printf.sprintf "amp %d" row) value got.Complex.re;
      Helpers.check_close "imag" 0.0 got.Complex.im)
    expected

let test_unitarity () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "unitary" true (Unitary.is_unitary (Unitary.of_circuit c)))
    [ Catalog.qft 3; Catalog.qec3_encode; Catalog.cat_state 3 ]

let test_fidelity_and_phase () =
  let a = Statevec.apply (Gate.h 0) (Statevec.zero 1) in
  let b = Statevec.apply (Gate.rz 0 90.0) a in
  (* A global... Rz on |+> is not a global phase: fidelity < 1. *)
  Alcotest.(check bool) "rz changes |+>" true (Statevec.fidelity a b < 1.0 -. 1e-9);
  (* ZZ on |00> only adds a global phase. *)
  let s0 = Statevec.zero 2 in
  let s1 = Statevec.apply (Gate.zz 0 1 77.0) s0 in
  Alcotest.(check bool) "global phase equal" true (Statevec.equal_up_to_phase s0 s1)

let test_unsupported_custom () =
  let c = Circuit.make ~qubits:2 [ Gate.custom2 "U" 3.0 0 1 ] in
  match Statevec.run c (Statevec.zero 2) with
  | exception Statevec.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_swap_network_is_permutation () =
  (* A chain of SWAPs implements a cyclic rotation of basis-state bits. *)
  let c = Circuit.make ~qubits:3 [ Gate.swap 0 1; Gate.swap 1 2 ] in
  let u = Unitary.of_circuit c in
  (* Token at 0 goes to 1 then... qubit relabeling: 0->2? Check action on
     |001> (qubit 0 set): swaps 0,1 -> qubit 1 set; swap 1,2 -> qubit 2 set. *)
  let s = Statevec.run c (Statevec.basis ~n:3 0b001) in
  Helpers.check_close "bit moved to qubit 2" 1.0 (Statevec.probabilities s).(0b100);
  Alcotest.(check bool) "matches permutation unitary" true
    (Unitary.equal_up_to_phase u (Unitary.of_qubit_permutation ~n:3 [| 2; 0; 1 |]))

let qcheck_random_circuit_unitary =
  (* Any circuit from the supported gate set yields a unitary map. *)
  let gate_gen rng n =
    match Qcp_util.Rng.int rng 6 with
    | 0 -> Gate.h (Qcp_util.Rng.int rng n)
    | 1 -> Gate.rx (Qcp_util.Rng.int rng n) (Qcp_util.Rng.float rng 360.0)
    | 2 -> Gate.ry (Qcp_util.Rng.int rng n) (Qcp_util.Rng.float rng 360.0)
    | 3 -> Gate.rz (Qcp_util.Rng.int rng n) (Qcp_util.Rng.float rng 360.0)
    | 4 ->
      let a = Qcp_util.Rng.int rng n in
      let b = (a + 1 + Qcp_util.Rng.int rng (n - 1)) mod n in
      Gate.zz a b (Qcp_util.Rng.float rng 360.0)
    | _ ->
      let a = Qcp_util.Rng.int rng n in
      let b = (a + 1 + Qcp_util.Rng.int rng (n - 1)) mod n in
      Gate.cnot a b
  in
  QCheck.Test.make ~name:"random circuits are unitary" ~count:25
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let gates = List.init 8 (fun _ -> gate_gen rng n) in
      Unitary.is_unitary (Unitary.of_circuit (Circuit.make ~qubits:n gates)))

let qcheck_norm_preserved =
  QCheck.Test.make ~name:"gates preserve the norm" ~count:50
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let s = ref (Statevec.basis ~n (Qcp_util.Rng.int rng (1 lsl n))) in
      for _ = 1 to 6 do
        let q = Qcp_util.Rng.int rng n in
        s := Statevec.apply (Gate.ry q (Qcp_util.Rng.float rng 360.0)) !s;
        if n > 1 then begin
          let b = (q + 1) mod n in
          s := Statevec.apply (Gate.zz q b (Qcp_util.Rng.float rng 360.0)) !s
        end
      done;
      Float.abs (Statevec.norm !s -. 1.0) < 1e-9)

let suite =
  [
    Alcotest.test_case "basis states" `Quick test_basis_states;
    Alcotest.test_case "x flips" `Quick test_x_gate_flips;
    Alcotest.test_case "hadamard" `Quick test_hadamard;
    Alcotest.test_case "cnot truth table" `Quick test_cnot_truth_table;
    Alcotest.test_case "swap gate" `Quick test_swap_gate;
    Alcotest.test_case "bell state" `Quick test_bell_state;
    Alcotest.test_case "rz phase only" `Quick test_rz_phase_only;
    Alcotest.test_case "zz vs cphase" `Quick test_zz_vs_cphase;
    Alcotest.test_case "cnot from zz (Section 2)" `Quick test_cnot_from_zz;
    Alcotest.test_case "qft2 matrix (equation 1)" `Quick test_qft_unitary_matrix;
    Alcotest.test_case "qft2 on |10> (Section 2 example)" `Quick test_qft_on_basis_state;
    Alcotest.test_case "unitarity" `Quick test_unitarity;
    Alcotest.test_case "fidelity and phase" `Quick test_fidelity_and_phase;
    Alcotest.test_case "unsupported custom gate" `Quick test_unsupported_custom;
    Alcotest.test_case "swap network unitary" `Quick test_swap_network_is_permutation;
    QCheck_alcotest.to_alcotest qcheck_random_circuit_unitary;
    QCheck_alcotest.to_alcotest qcheck_norm_preserved;
  ]
