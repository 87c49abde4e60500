module Gate = Qcp_circuit.Gate
module Circuit = Qcp_circuit.Circuit

let hadamard q = [ Gate.rz q 180.0; Gate.ry q 90.0 ]

let cphase a b angle =
  [ Gate.zz a b (-.angle /. 2.0); Gate.rz a (angle /. 2.0); Gate.rz b (angle /. 2.0) ]

let cnot c t = hadamard t @ cphase c t 180.0 @ hadamard t

let rec native_gate gate =
  match gate with
  | Gate.G1 (Gate.Rotation _, _) | Gate.G2 (Gate.ZZ _, _, _) -> [ gate ]
  | Gate.G1 (Gate.Custom1 _, _) | Gate.G2 (Gate.Custom2 _, _, _) -> [ gate ]
  | Gate.G1 (Gate.Hadamard, q) -> hadamard q
  | Gate.G2 (Gate.Cphase angle, a, b) -> cphase a b angle
  | Gate.G2 (Gate.Cnot, c, t) -> cnot c t
  | Gate.G2 (Gate.Swap, a, b) ->
    List.concat_map native_gate
      [ Gate.cnot a b; Gate.cnot b a; Gate.cnot a b ]

let is_native circuit =
  List.for_all
    (fun gate ->
      match gate with
      | Gate.G1 (Gate.Rotation _, _) | Gate.G2 (Gate.ZZ _, _, _) -> true
      | Gate.G1 ((Gate.Hadamard | Gate.Custom1 _), _)
      | Gate.G2 ((Gate.Cnot | Gate.Cphase _ | Gate.Swap | Gate.Custom2 _), _, _) ->
        false)
    (Circuit.gates circuit)

let to_native circuit =
  Circuit.make ~qubits:(Circuit.qubits circuit)
    (List.concat_map native_gate (Circuit.gates circuit))

let interaction_invariant circuit =
  Qcp_graph.Graph.equal
    (Circuit.interaction_graph circuit)
    (Circuit.interaction_graph (to_native circuit))
