(* Semantic equivalence of placed programs: the flattened physical circuit
   must compute exactly what the source circuit computes. *)

module Placer = Qcp.Placer
module Options = Qcp.Options
module Verify = Qcp.Verify
module Molecules = Qcp_env.Molecules
module Environment = Qcp_env.Environment
module Catalog = Qcp_circuit.Catalog
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate

let place_exn ?spill options env circuit =
  match Placer.place ?spill options env circuit with
  | Placer.Placed p -> p
  | Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg

let test_qec3_acetyl () =
  let env = Molecules.acetyl_chloride in
  let p = place_exn (Options.default ~threshold:100.0) env Catalog.qec3_encode in
  Alcotest.(check bool) "all 8 basis inputs" true (Verify.equivalent p)

let test_qec5_crotonic () =
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env Catalog.qec5_encode in
  Alcotest.(check bool) "all 32 basis inputs" true (Verify.equivalent p)

let test_qft5_with_swap_stages () =
  (* qft5 on a 7-vertex tree forces SWAP stages; semantics must survive. *)
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env (Catalog.qft 5) in
  Alcotest.(check bool) "has swap stages" true (Placer.swap_stage_count p > 0);
  Alcotest.(check bool) "equivalent" true (Verify.equivalent p)

let test_phaseest_boc () =
  let env = Molecules.boc_glycine_fluoride in
  let p = place_exn (Options.default ~threshold:200.0) env (Catalog.phase_estimation 4) in
  Alcotest.(check bool) "equivalent" true (Verify.equivalent p)

let test_superposition_inputs () =
  (* Beyond basis states: run a circuit that creates entanglement before the
     placed program's gates would act, by checking the full basis of a
     3-qubit entangling circuit (linearity then covers all inputs). *)
  let env = Molecules.acetyl_chloride in
  let bell3 =
    Circuit.make ~qubits:3 [ Gate.h 0; Gate.cnot 0 1; Gate.cnot 1 2; Gate.zz 0 1 90.0 ]
  in
  let p = place_exn (Options.default ~threshold:100.0) env bell3 in
  Alcotest.(check bool) "equivalent" true (Verify.equivalent p)

let test_sampled_verification () =
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:500.0) env (Catalog.qft 6) in
  let rng = Qcp_util.Rng.create 11 in
  Alcotest.(check bool) "random samples" true (Verify.equivalent_sampled rng ~samples:6 p)

let test_token_router_semantics () =
  (* The naive router must also preserve semantics. *)
  let env = Molecules.trans_crotonic_acid in
  let options = { (Options.default ~threshold:100.0) with Options.router = Options.Token } in
  let p = place_exn options env (Catalog.qft 5) in
  Alcotest.(check bool) "equivalent" true (Verify.equivalent p)

let test_no_leaf_override_semantics () =
  let env = Molecules.trans_crotonic_acid in
  let options =
    { (Options.default ~threshold:100.0) with Options.leaf_override = false }
  in
  let p = place_exn options env (Catalog.qft 5) in
  Alcotest.(check bool) "equivalent" true (Verify.equivalent p)

let test_corrupted_program_detected () =
  (* Sanity of the verifier itself: de-synchronizing a middle compute stage
     from its surrounding SWAP stages must be caught.  (Transposing a
     single-stage program's placement would merely relabel it, so a
     multi-stage program is required here.) *)
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env (Catalog.qft 5) in
  let computes =
    List.length
      (List.filter
         (function Placer.Compute _ -> true | Placer.Permute _ -> false)
         p.Placer.stages)
  in
  Alcotest.(check bool) "multi-stage program" true (computes >= 2);
  let corrupt_stage index =
    let seen = ref (-1) in
    let stages =
      List.map
        (fun stage ->
          match stage with
          | Placer.Compute { placement; circuit } ->
            incr seen;
            if !seen = index then begin
              let swapped = Array.copy placement in
              let tmp = swapped.(0) in
              swapped.(0) <- swapped.(1);
              swapped.(1) <- tmp;
              Placer.Compute { placement = swapped; circuit }
            end
            else Placer.Compute { placement; circuit }
          | Placer.Permute net -> Placer.Permute net)
        p.Placer.stages
    in
    { p with Placer.stages = stages }
  in
  (* Some transposition of some non-final stage must break semantics. *)
  let detected =
    List.exists
      (fun index -> not (Verify.equivalent (corrupt_stage index)))
      (Qcp_util.Listx.range (computes - 1))
  in
  Alcotest.(check bool) "detects corruption" true detected

let qcheck_random_small_programs_equivalent =
  QCheck.Test.make ~name:"random small circuits place equivalently" ~count:10
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      (* Random circuit over the simulable gate set. *)
      let gates =
        List.concat
          (List.init 8 (fun _ ->
               let a = Qcp_util.Rng.int rng n in
               let b = (a + 1 + Qcp_util.Rng.int rng (n - 1)) mod n in
               match Qcp_util.Rng.int rng 4 with
               | 0 -> [ Qcp_circuit.Gate.ry a (Qcp_util.Rng.float rng 180.0) ]
               | 1 -> [ Qcp_circuit.Gate.zz a b 90.0 ]
               | 2 -> [ Qcp_circuit.Gate.cnot a b ]
               | _ -> [ Qcp_circuit.Gate.h a ]))
      in
      let circuit = Circuit.make ~qubits:n gates in
      let env = Molecules.trans_crotonic_acid in
      match Placer.place (Options.default ~threshold:100.0) env circuit with
      | Placer.Unplaceable _ -> false
      | Placer.Placed p -> Verify.equivalent ~inputs:[ 0; 1; 3 ] p)

(* Streaming structural audit of a spilled run's line-JSON file: the
   report must agree with the run's own summary field for field, and each
   structural rule must actually reject a file violating it. *)

let with_temp_file f =
  let path = Filename.temp_file "qcp_spill" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines)

let test_stream_matches_spilled_summary () =
  with_temp_file (fun path ->
      let env = Molecules.trans_crotonic_acid in
      let circuit = Catalog.qft 6 in
      let options =
        { (Options.default ~threshold:100.0) with Options.window = 4 }
      in
      let p =
        place_exn ~spill:(Placer.Spill.file path) options env circuit
      in
      let s =
        match p.Placer.spilled with
        | Some s -> s
        | None -> Alcotest.fail "windowed spill run carries no summary"
      in
      match
        Verify.Stream.verify_file ~register:(Environment.size env) path
      with
      | Error msg -> Alcotest.failf "own spill file rejected: %s" msg
      | Ok r ->
        Alcotest.(check int) "computes" s.Placer.sm_computes
          r.Verify.Stream.computes;
        Alcotest.(check int) "networks" s.Placer.sm_networks
          r.Verify.Stream.networks;
        Alcotest.(check int) "swap depth" s.Placer.sm_swap_depth
          r.Verify.Stream.swap_depth;
        Alcotest.(check int) "swap count" s.Placer.sm_swap_count
          r.Verify.Stream.swap_count;
        Alcotest.(check (float 0.0)) "makespan" s.Placer.sm_makespan
          r.Verify.Stream.makespan;
        Alcotest.(check int) "qubits" (Circuit.qubits circuit)
          r.Verify.Stream.qubits;
        Alcotest.(check (option (array int))) "first placement"
          s.Placer.sm_first r.Verify.Stream.first;
        Alcotest.(check (option (array int))) "last placement"
          s.Placer.sm_last r.Verify.Stream.last)

(* Each rule of the audit, probed with a hand-crafted minimal file: the
   valid base passes, and every single-line perturbation is pinned to its
   specific complaint. *)
let stream_base =
  [
    {|{"stage": 0, "kind": "compute", "gates": 3, "makespan": 10.0, "placement": [0, 1, 2]}|};
    {|{"stage": 1, "kind": "permute", "depth": 1, "swaps": 2}|};
    {|{"stage": 2, "kind": "compute", "gates": 1, "makespan": 12.5, "placement": [1, 0, 2]}|};
  ]

let check_stream_rejects name lines needle =
  with_temp_file (fun path ->
      write_lines path lines;
      match Verify.Stream.verify_file ~register:3 path with
      | Ok _ -> Alcotest.failf "%s: invalid file accepted" name
      | Error msg ->
        if not (Helpers.contains ~needle msg) then
          Alcotest.failf "%s: %S does not mention %S" name msg needle)

let test_stream_accepts_minimal_valid () =
  with_temp_file (fun path ->
      write_lines path stream_base;
      match Verify.Stream.verify_file ~register:3 path with
      | Error msg -> Alcotest.failf "valid file rejected: %s" msg
      | Ok r ->
        Alcotest.(check int) "computes" 2 r.Verify.Stream.computes;
        Alcotest.(check int) "networks" 1 r.Verify.Stream.networks;
        Alcotest.(check int) "swap depth" 1 r.Verify.Stream.swap_depth;
        Alcotest.(check int) "swap count" 2 r.Verify.Stream.swap_count;
        Alcotest.(check (float 0.0)) "makespan" 12.5 r.Verify.Stream.makespan;
        Alcotest.(check (option (array int))) "first" (Some [| 0; 1; 2 |])
          r.Verify.Stream.first;
        Alcotest.(check (option (array int))) "last" (Some [| 1; 0; 2 |])
          r.Verify.Stream.last)

let test_stream_detects_corruption () =
  let replace i line = List.mapi (fun j l -> if i = j then line else l) stream_base in
  check_stream_rejects "empty file" [] "empty spill file";
  check_stream_rejects "bad JSON"
    (stream_base @ [ "not json at all" ])
    "bad JSON";
  check_stream_rejects "stage index gap"
    (replace 2
       {|{"stage": 7, "kind": "compute", "gates": 1, "makespan": 12.5, "placement": [1, 0, 2]}|})
    "stage index 7, expected 2";
  check_stream_rejects "unknown kind"
    (replace 2
       {|{"stage": 2, "kind": "measure", "gates": 1, "makespan": 12.5, "placement": [1, 0, 2]}|})
    "unknown stage kind";
  check_stream_rejects "permute before any compute"
    [ {|{"stage": 0, "kind": "permute", "depth": 1, "swaps": 1}|} ]
    "permute stage before any compute";
  check_stream_rejects "consecutive permutes"
    [
      List.nth stream_base 0;
      List.nth stream_base 1;
      {|{"stage": 2, "kind": "permute", "depth": 1, "swaps": 1}|};
    ]
    "two consecutive permute stages";
  check_stream_rejects "trailing permute"
    [ List.nth stream_base 0; List.nth stream_base 1 ]
    "trailing permute";
  check_stream_rejects "decreasing makespan"
    (replace 2
       {|{"stage": 2, "kind": "compute", "gates": 1, "makespan": 9.0, "placement": [1, 0, 2]}|})
    "below the running makespan";
  check_stream_rejects "duplicate placement vertex"
    (replace 2
       {|{"stage": 2, "kind": "compute", "gates": 1, "makespan": 12.5, "placement": [1, 1, 2]}|})
    "maps two qubits to vertex 1";
  check_stream_rejects "placement outside register"
    (replace 2
       {|{"stage": 2, "kind": "compute", "gates": 1, "makespan": 12.5, "placement": [1, 0, 5]}|})
    "entry 5 outside register 3";
  check_stream_rejects "negative placement entry"
    (replace 0
       {|{"stage": 0, "kind": "compute", "gates": 3, "makespan": 10.0, "placement": [0, -1, 2]}|})
    "negative placement entry";
  check_stream_rejects "placement width changes"
    (replace 2
       {|{"stage": 2, "kind": "compute", "gates": 1, "makespan": 12.5, "placement": [1, 0]}|})
    "placement width 2, expected 3";
  check_stream_rejects "swapless level"
    (replace 1 {|{"stage": 1, "kind": "permute", "depth": 3, "swaps": 2}|})
    "every level swaps"

let suite =
  [
    Alcotest.test_case "qec3 on acetyl" `Quick test_qec3_acetyl;
    Alcotest.test_case "qec5 on crotonic" `Quick test_qec5_crotonic;
    Alcotest.test_case "qft5 with swap stages" `Quick test_qft5_with_swap_stages;
    Alcotest.test_case "phaseest on boc-glycine" `Quick test_phaseest_boc;
    Alcotest.test_case "entangling circuit" `Quick test_superposition_inputs;
    Alcotest.test_case "sampled verification" `Quick test_sampled_verification;
    Alcotest.test_case "token router semantics" `Quick test_token_router_semantics;
    Alcotest.test_case "no leaf override semantics" `Quick test_no_leaf_override_semantics;
    Alcotest.test_case "corruption detected" `Quick test_corrupted_program_detected;
    QCheck_alcotest.to_alcotest qcheck_random_small_programs_equivalent;
    Alcotest.test_case "stream report matches spilled summary" `Quick
      test_stream_matches_spilled_summary;
    Alcotest.test_case "stream accepts a minimal valid file" `Quick
      test_stream_accepts_minimal_valid;
    Alcotest.test_case "stream rejects each structural violation" `Quick
      test_stream_detects_corruption;
  ]
