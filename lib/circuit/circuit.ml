type t = { qubit_count : int; gate_list : Gate.t list }

let make ~qubits gate_list =
  List.iter
    (fun gate ->
      List.iter
        (fun q ->
          if q < 0 || q >= qubits then
            invalid_arg
              (Printf.sprintf "Circuit.make: gate %s out of range (qubits=%d)"
                 (Gate.name gate) qubits))
        (Gate.qubits gate))
    gate_list;
  { qubit_count = qubits; gate_list }

let qubits t = t.qubit_count

let gates t = t.gate_list

let gate_count t = List.length t.gate_list

let two_qubit_count t = List.length (List.filter Gate.is_two_qubit t.gate_list)

let append a b =
  if a.qubit_count <> b.qubit_count then
    invalid_arg "Circuit.append: qubit counts differ";
  { qubit_count = a.qubit_count; gate_list = a.gate_list @ b.gate_list }

let map_qubits f ?qubits t =
  let qubit_count = match qubits with Some n -> n | None -> t.qubit_count in
  make ~qubits:qubit_count (List.map (Gate.map_qubits f) t.gate_list)

let sub t ~first ~count =
  {
    t with
    gate_list = Qcp_util.Listx.take count (Qcp_util.Listx.drop first t.gate_list);
  }

let coupled_pairs t =
  List.filter_map
    (fun gate ->
      match Gate.qubits gate with
      | [ a; b ] -> Some (min a b, max a b)
      | [ _ ] -> None
      | _ -> None)
    t.gate_list

let interaction_graph t = Qcp_graph.Graph.of_edges t.qubit_count (coupled_pairs t)

let total_duration t =
  List.fold_left (fun acc gate -> acc +. Gate.duration gate) 0.0 t.gate_list

let equal a b = a.qubit_count = b.qubit_count && a.gate_list = b.gate_list

let pp ppf t =
  Format.fprintf ppf "circuit on %d qubits, %d gates:@." t.qubit_count
    (gate_count t);
  List.iter (fun gate -> Format.fprintf ppf "  %s@." (Gate.name gate)) t.gate_list
