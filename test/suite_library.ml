(* Tests for the extended circuit library: GHZ, Toffoli, Grover, the
   Cuccaro adder — all verified semantically with the simulator. *)

module Library = Qcp_circuit.Library
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Statevec = Qcp_sim.Statevec

let test_ghz_state () =
  let c = Library.ghz 4 in
  let out = Statevec.run c (Statevec.zero 4) in
  let p = Statevec.probabilities out in
  Helpers.check_close "P(0000)" 0.5 p.(0);
  Helpers.check_close "P(1111)" 0.5 p.(15);
  Helpers.check_close "P(0001)" 0.0 p.(1)

let test_ghz_interactions () =
  let g = Circuit.interaction_graph (Library.ghz 6) in
  Alcotest.(check bool) "chain interactions" true
    (Qcp_graph.Graph.equal g (Qcp_graph.Generators.path_graph 6))

let toffoli_truth a b c = if a = 1 && b = 1 then 1 - c else c

let test_toffoli_truth_table () =
  let circuit = Circuit.make ~qubits:3 (Library.toffoli 0 1 2) in
  for input = 0 to 7 do
    let a = input land 1 and b = (input lsr 1) land 1 and c = (input lsr 2) land 1 in
    let expected = a lor (b lsl 1) lor (toffoli_truth a b c lsl 2) in
    let out = Statevec.run circuit (Statevec.basis ~n:3 input) in
    Helpers.check_close
      (Printf.sprintf "CCX |%d>" input)
      1.0
      (Statevec.probabilities out).(expected)
  done

let test_toffoli_unitary () =
  (* Against the explicit permutation matrix, up to global phase. *)
  let circuit = Circuit.make ~qubits:3 (Library.toffoli 0 1 2) in
  let u = Unitary.of_circuit circuit in
  Alcotest.(check bool) "unitary" true (Unitary.is_unitary u);
  (* CCX is real: check squared entries form the right permutation. *)
  for col = 0 to 7 do
    let a = col land 1 and b = (col lsr 1) land 1 and c = (col lsr 2) land 1 in
    let row = a lor (b lsl 1) lor (toffoli_truth a b c lsl 2) in
    Helpers.check_close
      (Printf.sprintf "entry %d %d" row col)
      1.0
      (Complex.norm (Unitary.entry u row col))
  done

let test_ccz_symmetric () =
  (* CCZ is symmetric in all three qubits. *)
  let u1 = Unitary.of_circuit (Circuit.make ~qubits:3 (Library.ccz 0 1 2)) in
  let u2 = Unitary.of_circuit (Circuit.make ~qubits:3 (Library.ccz 2 0 1)) in
  Alcotest.(check bool) "symmetric" true (Unitary.equal_up_to_phase u1 u2)

let test_grover_amplifies () =
  let out = Statevec.run Library.grover3 (Statevec.zero 3) in
  let p = Statevec.probabilities out in
  Alcotest.(check bool)
    (Printf.sprintf "P(111) = %.3f boosted" p.(7))
    true
    (p.(7) > 0.7);
  for i = 0 to 6 do
    Alcotest.(check bool) "other states suppressed" true (p.(i) < p.(7))
  done

let test_adder_semantics () =
  (* Cuccaro n=2 on 6 qubits: check b := a + b for all inputs. *)
  let n = 2 in
  let circuit = Library.cuccaro_adder n in
  Alcotest.(check int) "qubits" 6 (Circuit.qubits circuit);
  for a = 0 to 3 do
    for b = 0 to 3 do
      let input =
        (* cin = 0; a bits at 1,3; b bits at 2,4; cout at 5 *)
        ((a land 1) lsl 1) lor ((a lsr 1) lsl 3)
        lor ((b land 1) lsl 2) lor ((b lsr 1) lsl 4)
      in
      let sum, carry = Library.adder_sum n ~a ~b in
      let expected =
        ((a land 1) lsl 1) lor ((a lsr 1) lsl 3)
        lor ((sum land 1) lsl 2) lor ((sum lsr 1) lsl 4)
        lor (carry lsl 5)
      in
      let out = Statevec.run circuit (Statevec.basis ~n:6 input) in
      Helpers.check_close
        (Printf.sprintf "%d + %d" a b)
        1.0
        (Statevec.probabilities out).(expected)
    done
  done

let test_adder_sum_reference () =
  Alcotest.(check (pair int int)) "3+3 mod 4" (2, 1) (Library.adder_sum 2 ~a:3 ~b:3);
  Alcotest.(check (pair int int)) "1+2" (3, 0) (Library.adder_sum 2 ~a:1 ~b:2)

let test_adder_local_interactions () =
  (* The adder's couplings stay within a window, making it placeable on
     near-chain architectures with few workspaces. *)
  let c = Library.cuccaro_adder 4 in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "local pair %d-%d" u v)
        true
        (abs (u - v) <= 3))
    (Qcp_graph.Graph.edges (Circuit.interaction_graph c))

let test_adder_placement_needs_triangles () =
  (* The Toffolis make interaction triangles, so a bipartite grid forces one
     workspace per block, while a triangulated ladder hosts the whole
     adder in few stages. *)
  let circuit = Library.cuccaro_adder 4 in
  let grid = Qcp_env.Environment.grid 3 4 in
  let ladder_graph =
    Qcp_graph.Graph.of_edges 12
      (List.init 11 (fun i -> (i, i + 1)) @ List.init 10 (fun i -> (i, i + 2)))
  in
  let ladder = Qcp_env.Environment.of_graph ~name:"tri-ladder" ladder_graph in
  let count env =
    match Qcp.Placer.place (Qcp.Options.default ~threshold:50.0) env circuit with
    | Qcp.Placer.Placed p -> Qcp.Placer.subcircuit_count p
    | Qcp.Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg
  in
  let on_grid = count grid and on_ladder = count ladder in
  Alcotest.(check bool)
    (Printf.sprintf "ladder %d << grid %d" on_ladder on_grid)
    true
    (on_ladder <= 3 && on_grid > on_ladder)

let test_by_name () =
  List.iter
    (fun name ->
      match Library.by_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "library missing %s" name)
    Library.names

let qcheck_ghz_always_two_outcomes =
  QCheck.Test.make ~name:"ghz: only all-zeros/all-ones outcomes" ~count:8
    QCheck.(int_range 2 7)
    (fun n ->
      let out = Statevec.run (Library.ghz n) (Statevec.zero n) in
      let p = Statevec.probabilities out in
      let ones = (1 lsl n) - 1 in
      let stray = ref 0.0 in
      Array.iteri (fun i v -> if i <> 0 && i <> ones then stray := !stray +. v) p;
      !stray < 1e-9 && Float.abs (p.(0) -. 0.5) < 1e-9)

let suite =
  [
    Alcotest.test_case "ghz state" `Quick test_ghz_state;
    Alcotest.test_case "ghz interactions" `Quick test_ghz_interactions;
    Alcotest.test_case "toffoli truth table" `Quick test_toffoli_truth_table;
    Alcotest.test_case "toffoli unitary" `Quick test_toffoli_unitary;
    Alcotest.test_case "ccz symmetric" `Quick test_ccz_symmetric;
    Alcotest.test_case "grover amplifies" `Quick test_grover_amplifies;
    Alcotest.test_case "adder semantics" `Quick test_adder_semantics;
    Alcotest.test_case "adder reference" `Quick test_adder_sum_reference;
    Alcotest.test_case "adder locality" `Quick test_adder_local_interactions;
    Alcotest.test_case "adder needs triangles" `Quick test_adder_placement_needs_triangles;
    Alcotest.test_case "by_name" `Quick test_by_name;
    QCheck_alcotest.to_alcotest qcheck_ghz_always_two_outcomes;
  ]
