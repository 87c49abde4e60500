(* Tests for qcp_env: environment construction, thresholds, connectivity
   closure, molecule data and the .env text format. *)

module Environment = Qcp_env.Environment
module Molecules = Qcp_env.Molecules
module Env_format = Qcp_env.Env_format
module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths

let test_make_validation () =
  Alcotest.check_raises "asymmetric rejected"
    (Invalid_argument "Environment.make: delay matrix not symmetric") (fun () ->
      ignore
        (Environment.make ~name:"bad" ~nuclei:[| "a"; "b" |]
           ~delay:[| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |] ()))

let test_of_couplings () =
  let env =
    Environment.of_couplings ~name:"t" ~nuclei:[| "a"; "b"; "c" |]
      ~single:[| 1.0; 2.0; 3.0 |]
      ~couplings:[ (0, 1, 5.0) ]
      ()
  in
  Helpers.check_close "coupling" 5.0 (Environment.coupling_delay env 0 1);
  Helpers.check_close "symmetric" 5.0 (Environment.coupling_delay env 1 0);
  Helpers.check_close "single" 2.0 (Environment.single_delay env 1);
  Alcotest.(check bool) "default infinite" true
    (Environment.coupling_delay env 0 2 = Float.infinity)

let test_nucleus_lookup () =
  let env = Molecules.acetyl_chloride in
  Alcotest.(check string) "name" "M" (Environment.nucleus env 0)

let test_acetyl_paper_numbers () =
  (* The exact delays recovered from Table 1 / Example 3. *)
  let env = Molecules.acetyl_chloride in
  Helpers.check_close "M single" 8.0 (Environment.single_delay env 0);
  Helpers.check_close "C2 single" 1.0 (Environment.single_delay env 2);
  Helpers.check_close "M-C1" 38.0 (Environment.coupling_delay env 0 1);
  Helpers.check_close "C1-C2" 89.0 (Environment.coupling_delay env 1 2);
  Helpers.check_close "M-C2" 672.0 (Environment.coupling_delay env 0 2)

let test_adjacency_threshold () =
  let env = Molecules.acetyl_chloride in
  let g100 = Environment.adjacency env ~threshold:100.0 in
  Alcotest.(check int) "two fast edges below 100" 2 (Graph.edge_count g100);
  Alcotest.(check bool) "M-C1 fast" true (Graph.mem_edge g100 0 1);
  Alcotest.(check bool) "M-C2 slow" false (Graph.mem_edge g100 0 2);
  let g10 = Environment.adjacency env ~threshold:10.0 in
  Alcotest.(check int) "nothing below 10" 0 (Graph.edge_count g10);
  (* Strictness: threshold equal to a delay excludes it. *)
  let g38 = Environment.adjacency env ~threshold:38.0 in
  Alcotest.(check int) "strictly below" 0 (Graph.edge_count g38)

let test_connected_adjacency () =
  let env = Molecules.acetyl_chloride in
  Alcotest.(check bool) "empty threshold -> None" true
    (Environment.connected_adjacency env ~threshold:10.0 = None);
  (match Environment.connected_adjacency env ~threshold:50.0 with
  | None -> Alcotest.fail "expected closure"
  | Some g ->
    Alcotest.(check bool) "closure connected" true (Paths.is_connected g));
  (match Environment.connected_adjacency env ~threshold:100.0 with
  | None -> Alcotest.fail "expected graph"
  | Some g ->
    Alcotest.(check int) "already connected untouched" 2 (Graph.edge_count g))

let test_min_threshold_connected () =
  let env = Molecules.acetyl_chloride in
  let th = Environment.min_threshold_connected env in
  (* The MST of acetyl chloride uses edges 38 and 89. *)
  Alcotest.(check bool) "just above 89" true (th > 89.0 && th < 90.0);
  let g = Environment.adjacency env ~threshold:th in
  Alcotest.(check bool) "connected at that threshold" true (Paths.is_connected g)

let test_molecule_shapes () =
  List.iter
    (fun (env, expected) ->
      Alcotest.(check int)
        (Environment.name env ^ " size")
        expected (Environment.size env))
    [
      (Molecules.acetyl_chloride, 3);
      (Molecules.boc_glycine_fluoride, 5);
      (Molecules.iron_complex, 5);
      (Molecules.trans_crotonic_acid, 7);
      (Molecules.histidine, 12);
    ]

let test_crotonic_bond_structure () =
  (* The bond graph: tree with longest chain of 5 (paper Section 6 notes the
     longest spin chain of trans-crotonic acid has five qubits). *)
  let env = Molecules.trans_crotonic_acid in
  let bonds = Environment.adjacency env ~threshold:100.0 in
  Alcotest.(check int) "six bonds" 6 (Graph.edge_count bonds);
  Alcotest.(check bool) "tree is connected" true (Paths.is_connected bonds);
  (* Longest path in the bond tree = 5 vertices: no 6-chain embeds. *)
  Alcotest.(check bool) "5-chain embeds" true
    (Qcp_graph.Monomorph.exists
       ~pattern:(Qcp_graph.Generators.path_graph 5)
       ~target:bonds);
  Alcotest.(check bool) "6-chain does not embed" false
    (Qcp_graph.Monomorph.exists
       ~pattern:(Qcp_graph.Generators.path_graph 6)
       ~target:bonds)

let test_histidine_cat_path () =
  (* cat10 needs a 10-vertex bond path in histidine. *)
  let env = Molecules.histidine in
  let bonds = Environment.adjacency env ~threshold:1000.0 in
  Alcotest.(check bool) "10-chain embeds" true
    (Qcp_graph.Monomorph.exists
       ~pattern:(Qcp_graph.Generators.path_graph 10)
       ~target:bonds)

let test_iron_is_slow () =
  (* The paper's N/A rows: thresholds 50 and 100 disallow everything. *)
  let env = Molecules.iron_complex in
  Alcotest.(check bool) "th 50 empty" true
    (Environment.connected_adjacency env ~threshold:50.0 = None);
  Alcotest.(check bool) "th 100 empty" true
    (Environment.connected_adjacency env ~threshold:100.0 = None);
  Alcotest.(check bool) "th 200 usable" true
    (Environment.connected_adjacency env ~threshold:200.0 <> None)

let test_boc_connected_at_50 () =
  let env = Molecules.boc_glycine_fluoride in
  let g = Environment.adjacency env ~threshold:50.0 in
  Alcotest.(check bool) "bond chain fast at 50" true (Paths.is_connected g)

let test_chain_generator () =
  let env = Environment.chain 8 in
  Alcotest.(check int) "size" 8 (Environment.size env);
  Helpers.check_close "neighbor coupling = 10 units (0.001 s)" 10.0
    (Environment.coupling_delay env 3 4);
  Alcotest.(check bool) "non-neighbors unusable" true
    (Environment.coupling_delay env 0 5 = Float.infinity);
  let g = Environment.adjacency env ~threshold:50.0 in
  Alcotest.(check bool) "chain adjacency" true
    (Graph.equal g (Qcp_graph.Generators.path_graph 8))

let test_grid_and_complete_generators () =
  let grid = Environment.grid 3 4 in
  Alcotest.(check int) "grid size" 12 (Environment.size grid);
  let complete = Environment.complete_uniform 5 in
  let g = Environment.adjacency complete ~threshold:50.0 in
  Alcotest.(check int) "complete edges" 10 (Graph.edge_count g)

let test_search_space () =
  let env = Molecules.histidine in
  Alcotest.(check (option int)) "Table 2: 12 nuclei, 10 qubits"
    (Some 239_500_800)
    (Qcp_util.Bigdec.to_int_opt (Environment.search_space env ~qubits:10))

let test_env_format_roundtrip () =
  List.iter
    (fun env ->
      let text = Env_format.print env in
      let back = Env_format.parse text in
      Alcotest.(check int) "size" (Environment.size env) (Environment.size back);
      for i = 0 to Environment.size env - 1 do
        for j = 0 to Environment.size env - 1 do
          let a = Environment.coupling_delay env i j in
          let b = Environment.coupling_delay back i j in
          if Float.is_finite a || Float.is_finite b then
            Helpers.check_close "delay preserved" a b
        done
      done)
    [ Molecules.acetyl_chloride; Molecules.iron_complex; Molecules.trans_crotonic_acid ]

let test_env_format_errors () =
  let expect_error text =
    match Env_format.parse text with
    | exception Env_format.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "single a 1";
  expect_error "nuclei a b\ncoupling a c 5";
  expect_error "nuclei a b\nbogus";
  expect_error "nuclei a b\ncoupling a b x"

let test_to_dot () =
  let dot = Environment.to_dot ~threshold:100.0 Molecules.acetyl_chloride in
  Alcotest.(check bool) "labels nuclei" true (Helpers.contains ~needle:"C1" dot);
  Alcotest.(check bool) "labels delays" true (Helpers.contains ~needle:"38" dot)

let qcheck_closure_always_connected =
  QCheck.Test.make ~name:"connected_adjacency is connected when Some" ~count:50
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, m) ->
      let rng = Qcp_util.Rng.create seed in
      let couplings =
        Qcp_util.Listx.pairs (Qcp_util.Listx.range m)
        |> List.filter_map (fun (i, j) ->
               if Qcp_util.Rng.bool rng then
                 Some (i, j, 1.0 +. Qcp_util.Rng.float rng 500.0)
               else None)
      in
      let env =
        Environment.of_couplings ~name:"rand"
          ~nuclei:(Array.init m (fun i -> Printf.sprintf "n%d" i))
          ~single:(Array.make m 1.0) ~couplings ()
      in
      match Environment.connected_adjacency env ~threshold:100.0 with
      | None ->
        (* Legitimate only when the fast graph is empty or even the full
           finite-coupling graph is disconnected. *)
        Graph.is_empty (Environment.adjacency env ~threshold:100.0)
        || not
             (Paths.is_connected
                (Environment.adjacency env ~threshold:Float.infinity))
      | Some g -> Paths.is_connected g)

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "of_couplings" `Quick test_of_couplings;
    Alcotest.test_case "nucleus lookup" `Quick test_nucleus_lookup;
    Alcotest.test_case "acetyl chloride paper numbers" `Quick test_acetyl_paper_numbers;
    Alcotest.test_case "adjacency threshold" `Quick test_adjacency_threshold;
    Alcotest.test_case "connected adjacency" `Quick test_connected_adjacency;
    Alcotest.test_case "min connected threshold" `Quick test_min_threshold_connected;
    Alcotest.test_case "molecule sizes" `Quick test_molecule_shapes;
    Alcotest.test_case "crotonic bond tree" `Quick test_crotonic_bond_structure;
    Alcotest.test_case "histidine 10-path" `Quick test_histidine_cat_path;
    Alcotest.test_case "iron N/A thresholds" `Quick test_iron_is_slow;
    Alcotest.test_case "boc-glycine chain at 50" `Quick test_boc_connected_at_50;
    Alcotest.test_case "chain generator" `Quick test_chain_generator;
    Alcotest.test_case "grid/complete generators" `Quick test_grid_and_complete_generators;
    Alcotest.test_case "search space (Table 2)" `Quick test_search_space;
    Alcotest.test_case "env format roundtrip" `Quick test_env_format_roundtrip;
    Alcotest.test_case "env format errors" `Quick test_env_format_errors;
    Alcotest.test_case "dot export" `Quick test_to_dot;
    QCheck_alcotest.to_alcotest qcheck_closure_always_connected;
  ]
