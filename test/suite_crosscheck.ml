(* Cross-validation of core oracles against brute force, and a few
   odds-and-ends unit tests. *)

module Graph = Qcp_graph.Graph
module Monomorph = Qcp_graph.Monomorph
module Gen = Qcp_graph.Generators
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate

(* Brute-force subgraph monomorphism enumeration: try every injective
   assignment of the pattern's non-isolated vertices. *)
let brute_force_monomorphisms ~pattern ~target =
  let np = Graph.n pattern and nt = Graph.n target in
  let active =
    List.filter (fun v -> Graph.degree pattern v > 0) (Qcp_util.Listx.range np)
  in
  let edges = Graph.edges pattern in
  let results = ref [] in
  let mapping = Array.make np (-1) in
  let used = Array.make nt false in
  let ok_so_far v =
    List.for_all
      (fun (a, b) ->
        (not (a = v || b = v))
        || mapping.(a) < 0 || mapping.(b) < 0
        || Graph.mem_edge target mapping.(a) mapping.(b))
      edges
  in
  let rec assign = function
    | [] -> results := Array.copy mapping :: !results
    | v :: rest ->
      for c = 0 to nt - 1 do
        if not used.(c) then begin
          mapping.(v) <- c;
          used.(c) <- true;
          if ok_so_far v then assign rest;
          used.(c) <- false;
          mapping.(v) <- -1
        end
      done
  in
  assign active;
  !results

let canonical mappings =
  List.sort compare (List.map Array.to_list mappings)

let test_monomorph_matches_brute_force () =
  let rng = Qcp_util.Rng.create 97 in
  for _ = 1 to 25 do
    let np = 2 + Qcp_util.Rng.int rng 3 in
    let nt = np + Qcp_util.Rng.int rng 3 in
    let pattern = Gen.random_connected rng ~n:np ~extra_edges:(Qcp_util.Rng.int rng 2) in
    let target = Gen.random_connected rng ~n:nt ~extra_edges:(Qcp_util.Rng.int rng 4) in
    let vf2 = Monomorph.enumerate ~limit:100_000 ~pattern ~target () in
    let brute = brute_force_monomorphisms ~pattern ~target in
    Alcotest.(check int)
      (Printf.sprintf "count (np=%d nt=%d)" np nt)
      (List.length brute) (List.length vf2);
    Alcotest.(check bool) "same sets" true (canonical vf2 = canonical brute)
  done

let test_monomorph_matches_brute_force_fixed () =
  (* Deterministic fixtures with known counts. *)
  let check pattern target expected =
    let found = Monomorph.enumerate ~limit:100_000 ~pattern ~target () in
    Alcotest.(check int) "count" expected (List.length found)
  in
  (* Path3 into cycle4: each of the 4 center choices x 2 orientations... on
     a cycle every vertex has degree 2; a 3-path maps center to any of the 4
     vertices and picks 2 ordered neighbors: 4 * 2 = 8. *)
  check (Gen.path_graph 3) (Gen.cycle_graph 4) 8;
  (* Triangle into K4: 4 choose 3 vertex sets x 3! orderings = 24. *)
  check (Gen.cycle_graph 3) (Gen.complete 4) 24;
  (* Star3 (claw) into K4 has 4 * 3! = 24; into cycle4 none (needs degree 3). *)
  check (Gen.star 4) (Gen.complete 4) 24;
  check (Gen.star 4) (Gen.cycle_graph 4) 0

(* --------------------- odds and ends ------------------------------ *)

let test_environment_pp () =
  let text = Format.asprintf "%a" Qcp_env.Environment.pp Qcp_env.Molecules.acetyl_chloride in
  Alcotest.(check bool) "names" true (Helpers.contains ~needle:"C1" text);
  Alcotest.(check bool) "couplings" true (Helpers.contains ~needle:"672" text)

let test_placer_pp () =
  match
    Qcp.Placer.place
      (Qcp.Options.default ~threshold:100.0)
      Qcp_env.Molecules.acetyl_chloride Qcp_circuit.Catalog.qec3_encode
  with
  | Qcp.Placer.Placed p ->
    let text = Format.asprintf "%a" Qcp.Placer.pp p in
    Alcotest.(check bool) "shows mapping" true (Helpers.contains ~needle:"q0->" text)
  | Qcp.Placer.Unplaceable _ -> Alcotest.fail "must place"

let test_steane_verify () =
  (* The 10-qubit Steane syndrome circuits place on histidine and stay
     semantically exact (4096-amplitude states). *)
  let env = Qcp_env.Molecules.histidine in
  List.iter
    (fun circuit ->
      match Qcp.Placer.place (Qcp.Options.default ~threshold:500.0) env circuit with
      | Qcp.Placer.Placed p ->
        Alcotest.(check bool) "verified" true
          (Qcp.Verify.equivalent ~inputs:[ 0; 1; 0b1111111000 ] p)
      | Qcp.Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg)
    [ Qcp_circuit.Catalog.steane_x1; Qcp_circuit.Catalog.steane_x2 ]

let qcheck_complete_env_single_workspace =
  (* On an all-to-all machine every circuit is one workspace and the
     placement runtime is at most any identity-style evaluation. *)
  QCheck.Test.make ~name:"complete environments need no swaps" ~count:20
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
      let env = Qcp_env.Environment.complete_uniform (n + 1) in
      match Qcp.Placer.place (Qcp.Options.fast ~threshold:50.0) env circuit with
      | Qcp.Placer.Unplaceable _ -> false
      | Qcp.Placer.Placed p ->
        Qcp.Placer.subcircuit_count p = 1
        && Qcp.Placer.swap_stage_count p = 0)

let suite =
  [
    Alcotest.test_case "monomorphism = brute force (random)" `Quick
      test_monomorph_matches_brute_force;
    Alcotest.test_case "monomorphism = brute force (fixed)" `Quick
      test_monomorph_matches_brute_force_fixed;
    Alcotest.test_case "environment pp" `Quick test_environment_pp;
    Alcotest.test_case "placer pp" `Quick test_placer_pp;
    Alcotest.test_case "steane circuits verify" `Slow test_steane_verify;
    QCheck_alcotest.to_alcotest qcheck_complete_env_single_workspace;
  ]

(* --------------------- shipped data files ------------------------- *)

let data_dir =
  (* dune copies the source tree into the sandbox; tests run in test/. *)
  if Sys.file_exists "../data" then "../data" else "data"

let test_data_files_load () =
  let env = Qcp_env.Env_format.parse_file (Filename.concat data_dir "acetyl-chloride.env") in
  Alcotest.(check string) "env name" "acetyl-chloride" (Qcp_env.Environment.name env);
  Helpers.check_close "coupling preserved" 672.0
    (Qcp_env.Environment.coupling_delay env 0 2);
  Helpers.check_close "t2 preserved" 12000.0 (Qcp_env.Environment.t2 env 0);
  let qec3 = Qcp_circuit.Qc_format.parse_file (Filename.concat data_dir "qec3.qc") in
  Alcotest.(check bool) "qec3 identical to catalog" true
    (Qcp_circuit.Circuit.equal qec3 Qcp_circuit.Catalog.qec3_encode);
  let ghz = Qcp_circuit.Qasm.parse_file (Filename.concat data_dir "ghz8.qasm") in
  Alcotest.(check int) "ghz8 qubits" 8 (Qcp_circuit.Circuit.qubits ghz);
  (* End-to-end from files: place the file circuit on the file molecule. *)
  match
    Qcp.Placer.place (Qcp.Options.default ~threshold:100.0) env qec3
  with
  | Qcp.Placer.Placed p -> Helpers.check_close "exact optimum from files" 136.0 (Qcp.Placer.runtime p)
  | Qcp.Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg

let suite = suite @ [ Alcotest.test_case "shipped data files" `Quick test_data_files_load ]
