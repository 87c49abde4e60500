(* Locks the reporting pipeline into `dune runtest`: every table/figure
   driver must run and contain its anchor facts. *)

module E = Qcp_report.Experiments

let contains = Helpers.contains

let test_table1 () =
  let text = E.table1 () in
  Alcotest.(check bool) "bad runtime 770" true (contains ~needle:"770" text);
  Alcotest.(check bool) "optimal 136" true (contains ~needle:"136" text);
  Alcotest.(check bool) "intermediate 680" true (contains ~needle:"680" text)

let test_table2 () =
  let text = E.table2 () in
  Alcotest.(check bool) "acetyl exact" true (contains ~needle:"0.0136 sec" text);
  Alcotest.(check bool) "search space 2520" true (contains ~needle:"2520" text);
  Alcotest.(check bool) "search space 239500800" true
    (contains ~needle:"239500800" text)

let test_table3 () =
  (* A smaller monomorphism limit keeps this test quick; shapes still hold. *)
  let text = E.table3 ~monomorphism_limit:24 () in
  Alcotest.(check bool) "iron N/A" true (contains ~needle:"N/A" text);
  Alcotest.(check bool) "histidine section" true
    (contains ~needle:"12-qubit histidine" text);
  (* Whole-circuit placement shows exactly one subcircuit at 10000. *)
  Alcotest.(check bool) "single-workspace cells" true
    (contains ~needle:"(1)" text)

let test_table4 () =
  let text = E.table4 () in
  Alcotest.(check bool) "row 8 gates" true (contains ~needle:"72" text);
  Alcotest.(check bool) "row 128 gates" true (contains ~needle:"6272" text);
  (* The headline: subcircuits match hidden stages on every row; spot-check
     by parsing each data row. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.length line > 0 && line.[0] = '|' then begin
           match
             String.split_on_char '|' line
             |> List.map String.trim
             |> List.filter (fun c -> c <> "")
           with
           | qubits :: _gates :: hidden :: subcircuits :: _
             when int_of_string_opt qubits <> None ->
             Alcotest.(check string)
               (Printf.sprintf "N=%s stages" qubits)
               hidden subcircuits
           | _ -> ()
         end)

let test_figures () =
  Alcotest.(check bool) "figure1 delays" true
    (contains ~needle:"672" (E.figure1 ()));
  Alcotest.(check bool) "figure2 diagram" true
    (contains ~needle:"[ZZ 90]" (E.figure2 ()));
  let f3 = E.figure3 () in
  Alcotest.(check bool) "figure3 runs the permutation" true
    (contains ~needle:"level" f3 && contains ~needle:"C4" f3);
  Alcotest.(check bool) "figure4 molecule s=1/2" true
    (contains ~needle:"0.500" (E.figure4 ()))

let test_npc () =
  let text = E.npc () in
  Alcotest.(check bool) "petersen row" true (contains ~needle:"petersen" text);
  Alcotest.(check bool) "all rows agree" false (contains ~needle:"false " text
  && contains ~needle:"| false |" text)

let test_npc_agreement_column () =
  let text = E.npc () in
  (* The final column of every data row must be "true". *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if
           String.length line > 0 && line.[0] = '|'
           && not (contains ~needle:"agree" line)
         then
           Alcotest.(check bool) "agree column" true
             (contains ~needle:"| true  |" (line ^ " ")
             || contains ~needle:"true" line))

let test_ablation () =
  let text = E.ablation () in
  Alcotest.(check bool) "has default row" true
    (contains ~needle:"default (paper settings)" text);
  Alcotest.(check bool) "has balancing row" true
    (contains ~needle:"boundary balancing" text)

let test_fidelity () =
  let text = E.fidelity () in
  Alcotest.(check bool) "has fidelity numbers" true (contains ~needle:"0." text);
  Alcotest.(check bool) "has all three rows" true
    (contains ~needle:"pseudo-cat" text)

let test_architectures () =
  let text = E.architectures () in
  Alcotest.(check bool) "chain row" true (contains ~needle:"chain-10" text);
  Alcotest.(check bool) "complete row" true (contains ~needle:"complete-10" text)

let test_schedule_demo () =
  let text = E.schedule_demo () in
  Alcotest.(check bool) "gantt" true (contains ~needle:"pulse schedule" text)

(* The 12-qubit histidine block of Table 3, pinned cell by cell: runtime
   (delay units) and subcircuit count under [Options.default] at each
   threshold, exactly as recorded in EXPERIMENTS.md.  Every pruning bound
   in the placer claims to leave placements unchanged; this holds them to
   it on the paper's heaviest block. *)
let histidine_block =
  [
    ("phaseest", [ 1831.0, 4; 1831.0, 4; 1347.25, 3; 793.75, 2; 793.75, 2; 992.0, 1 ]);
    ("qft6", [ 5504.3125, 5; 5504.3125, 5; 2088.75, 4; 1443.625, 2; 1790.625, 2; 1059.0, 1 ]);
    ("aqft9", [ 10495.75, 8; 10495.75, 8; 13806.0, 7; 5777.0, 3; 8579.75, 3; 5061.5, 1 ]);
    ("steane-x/z1", [ 4207.0, 4; 4207.0, 4; 7319.0, 3; 7092.0, 2; 5382.0, 2; 12788.0, 1 ]);
    ("steane-x/z2", [ 8461.0, 5; 8461.0, 5; 29958.0, 3; 5166.0, 2; 5236.0, 2; 5893.0, 1 ]);
    ("aqft12", [ 18640.625, 11; 18640.625, 11; 20284.0, 10; 16444.25, 4; 15435.875, 4; 7459.5, 1 ]);
  ]

let place_histidine ?jobs name threshold =
  let circuit = Option.get (Qcp_circuit.Catalog.by_name name) in
  let options = Qcp.Options.default ~threshold in
  let options =
    match jobs with
    | Some jobs -> { options with Qcp.Options.jobs }
    | None -> options
  in
  match Qcp.Placer.place options Qcp_env.Molecules.histidine circuit with
  | Qcp.Placer.Placed p -> p
  | Qcp.Placer.Unplaceable msg ->
    Alcotest.failf "%s @ %g unplaceable: %s" name threshold msg

let test_histidine_block () =
  List.iter
    (fun (name, cells) ->
      List.iter2
        (fun threshold (runtime, subcircuits) ->
          let p = place_histidine name threshold in
          let cell = Printf.sprintf "%s @ %g" name threshold in
          Alcotest.(check (float 0.0)) (cell ^ " runtime") runtime
            (Qcp.Placer.runtime p);
          Alcotest.(check int) (cell ^ " subcircuits") subcircuits
            (Qcp.Placer.subcircuit_count p))
        [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ]
        cells)
    histidine_block;
  (* The swap-weighted prebound refutes most lookahead completions of this
     cell before routing; the parent's hop-count bound routed 10,319.
     Sequential, so the request count is schedule-independent. *)
  let p = place_histidine ~jobs:0 "steane-x/z2" 1000.0 in
  Alcotest.(check (float 0.0)) "steane-x/z2 @ 1000 runtime" 5236.0
    (Qcp.Placer.runtime p);
  let routed = p.Qcp.Placer.stats.Qcp.Placer.networks_routed in
  if routed > 4300 then
    Alcotest.failf "steane-x/z2 @ 1000 routed %d networks (budget 4300)" routed

let suite =
  [
    Alcotest.test_case "table1 anchors" `Quick test_table1;
    Alcotest.test_case "table2 anchors" `Quick test_table2;
    Alcotest.test_case "table3 anchors" `Slow test_table3;
    Alcotest.test_case "table3 histidine block pinned" `Quick
      test_histidine_block;
    Alcotest.test_case "table4 stage structure" `Slow test_table4;
    Alcotest.test_case "figures" `Quick test_figures;
    Alcotest.test_case "npc report" `Quick test_npc;
    Alcotest.test_case "npc agreement" `Quick test_npc_agreement_column;
    Alcotest.test_case "ablation report" `Slow test_ablation;
    Alcotest.test_case "fidelity report" `Quick test_fidelity;
    Alcotest.test_case "architectures report" `Quick test_architectures;
    Alcotest.test_case "schedule demo" `Quick test_schedule_demo;
  ]
