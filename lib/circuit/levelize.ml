let levels circuit =
  let qubit_level = Array.make (Circuit.qubits circuit) 0 in
  let buckets = Hashtbl.create 16 in
  let max_level = ref (-1) in
  List.iter
    (fun gate ->
      let level =
        List.fold_left (fun acc q -> max acc qubit_level.(q)) 0 (Gate.qubits gate)
      in
      List.iter (fun q -> qubit_level.(q) <- level + 1) (Gate.qubits gate);
      max_level := max !max_level level;
      let existing = try Hashtbl.find buckets level with Not_found -> [] in
      Hashtbl.replace buckets level (gate :: existing))
    (Circuit.gates circuit);
  List.filter_map
    (fun level ->
      match Hashtbl.find_opt buckets level with
      | None -> None
      | Some bucket -> Some (List.rev bucket))
    (Qcp_util.Listx.range (!max_level + 1))

let check level_list =
  List.for_all
    (fun level ->
      let all = List.concat_map Gate.qubits level in
      List.length all = List.length (List.sort_uniq compare all))
    level_list
