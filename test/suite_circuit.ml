(* Tests for qcp_circuit: gates, circuits, levelization, the timing model
   (including the paper's worked Table 1 example) and the circuit catalog. *)

module Gate = Qcp_circuit.Gate
module Circuit = Qcp_circuit.Circuit
module Levelize = Qcp_circuit.Levelize
module Timing = Qcp_circuit.Timing
module Catalog = Qcp_circuit.Catalog
module Random_circuit = Qcp_circuit.Random_circuit
module Qc_format = Qcp_circuit.Qc_format

let test_gate_durations () =
  Helpers.check_close "Ry(90)" 1.0 (Gate.duration (Gate.ry 0 90.0));
  Helpers.check_close "Rx(180) = 2x90 (footnote 3)" 2.0 (Gate.duration (Gate.rx 0 180.0));
  Helpers.check_close "Rz free" 0.0 (Gate.duration (Gate.rz 0 90.0));
  Helpers.check_close "ZZ(90)" 1.0 (Gate.duration (Gate.zz 0 1 90.0));
  Helpers.check_close "ZZ(-45)" 0.5 (Gate.duration (Gate.zz 0 1 (-45.0)));
  Helpers.check_close "CNOT" 1.0 (Gate.duration (Gate.cnot 0 1));
  Helpers.check_close "SWAP = 3 interactions" 3.0 (Gate.duration (Gate.swap 0 1));
  Helpers.check_close "H" 1.0 (Gate.duration (Gate.h 0));
  Helpers.check_close "CP(180) = ZZ(90)" 1.0 (Gate.duration (Gate.cphase 0 1 180.0));
  Helpers.check_close "custom" 2.5 (Gate.duration (Gate.custom2 "U" 2.5 0 1))

let test_gate_qubits () =
  Alcotest.(check (list int)) "1q" [ 3 ] (Gate.qubits (Gate.h 3));
  Alcotest.(check (list int)) "2q" [ 1; 4 ] (Gate.qubits (Gate.cnot 1 4));
  Alcotest.check_raises "equal qubits rejected"
    (Invalid_argument "Gate: two-qubit gate on equal qubits") (fun () ->
      ignore (Gate.cnot 2 2))

let test_gate_map () =
  let g = Gate.map_qubits (fun q -> q + 10) (Gate.zz 0 1 90.0) in
  Alcotest.(check (list int)) "relabeled" [ 10; 11 ] (Gate.qubits g)

let test_circuit_validation () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Circuit.make: gate CNOT q0,q5 out of range (qubits=3)")
    (fun () -> ignore (Circuit.make ~qubits:3 [ Gate.cnot 0 5 ]))

let test_circuit_counts () =
  let c = Catalog.qec3_encode in
  Alcotest.(check int) "qec3 gates (paper Table 2)" 9 (Circuit.gate_count c);
  Alcotest.(check int) "qec3 qubits" 3 (Circuit.qubits c);
  Alcotest.(check int) "qec3 two-qubit" 2 (Circuit.two_qubit_count c)

let test_catalog_paper_counts () =
  (* Gate/qubit counts printed in the paper's Table 2. *)
  Alcotest.(check int) "qec5 gates" 25 (Circuit.gate_count Catalog.qec5_encode);
  Alcotest.(check int) "qec5 qubits" 5 (Circuit.qubits Catalog.qec5_encode);
  Alcotest.(check int) "cat10 gates" 54 (Circuit.gate_count (Catalog.cat_state 10));
  Alcotest.(check int) "cat10 qubits" 10 (Circuit.qubits (Catalog.cat_state 10))

let test_catalog_structures () =
  (* QFT couples every pair (the paper points this out for qft6). *)
  let g = Circuit.interaction_graph (Catalog.qft 6) in
  Alcotest.(check int) "qft6 complete interactions" 15 (Qcp_graph.Graph.edge_count g);
  (* Approximate QFT is banded. *)
  let ga = Circuit.interaction_graph (Catalog.aqft 9) in
  Alcotest.(check bool) "aqft9 is sparser" true
    (Qcp_graph.Graph.edge_count ga < 36);
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "band limit" true (abs (u - v) < 4))
    (Qcp_graph.Graph.edges ga);
  (* qec5 interactions form a chain. *)
  let gq = Circuit.interaction_graph Catalog.qec5_encode in
  Alcotest.(check bool) "qec5 chain" true
    (Qcp_graph.Graph.equal gq (Qcp_graph.Generators.path_graph 5));
  (* phase estimation on t+1 qubits couples everything through the kicks and
     the inverse QFT: a complete interaction graph on 5 qubits. *)
  let gp = Circuit.interaction_graph (Catalog.phase_estimation 4) in
  Alcotest.(check int) "phaseest K5" 10 (Qcp_graph.Graph.edge_count gp)

let test_catalog_by_name () =
  List.iter
    (fun name ->
      match Catalog.by_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "catalog missing %s" name)
    Catalog.names;
  Alcotest.(check bool) "unknown" true (Catalog.by_name "nope" = None)

let test_levelize_disjoint () =
  let c = Catalog.qft 5 in
  let levels = Levelize.levels c in
  Alcotest.(check bool) "levels valid" true (Levelize.check levels);
  Alcotest.(check int) "gate count preserved" (Circuit.gate_count c)
    (List.length (List.concat levels))

let test_levelize_parallelism () =
  (* Two disjoint gates share a level; a dependent gate goes later. *)
  let c =
    Circuit.make ~qubits:4 [ Gate.h 0; Gate.h 1; Gate.cnot 0 1; Gate.h 2 ]
  in
  let levels = Levelize.levels c in
  Alcotest.(check int) "two levels" 2 (List.length levels);
  Alcotest.(check int) "first level width" 3 (List.length (List.hd levels))

(* Single-qubit delay 1 and coupling delay 10 on every vertex of a
   16-vertex register. *)
let uniform_weights =
  Array.init 16 (fun u -> Array.init 16 (fun v -> if u = v then 1.0 else 10.0))

let test_timing_asap_chain () =
  (* Gates chained on shared qubits serialize. *)
  let c = Circuit.make ~qubits:3 [ Gate.zz 0 1 90.0; Gate.zz 1 2 90.0 ] in
  Helpers.check_close "serialized" 20.0
    (Timing.runtime ~weights:uniform_weights ~place:Timing.identity_place c)

let test_timing_asap_parallel () =
  let c = Circuit.make ~qubits:4 [ Gate.zz 0 1 90.0; Gate.zz 2 3 90.0 ] in
  Helpers.check_close "parallel" 10.0
    (Timing.runtime ~weights:uniform_weights ~place:Timing.identity_place c)

let acetyl_weights =
  (* Delay matrix of acetyl chloride (paper Figure 1 / Example 3), vertices
     M=0, C1=1, C2=2. *)
  [| [| 8.; 38.; 672. |]; [| 38.; 8.; 89. |]; [| 672.; 89.; 1. |] |]

let test_timing_table1 () =
  (* Paper Table 1: mapping a->M, b->C2, c->C1 costs 770. *)
  let place = function 0 -> 0 | 1 -> 2 | 2 -> 1 | _ -> assert false in
  Helpers.check_close "Table 1 runtime" 770.0
    (Timing.runtime ~weights:acetyl_weights ~place Catalog.qec3_encode)

let test_timing_example3_optimal () =
  (* Paper Example 3: a->C2, b->C1, c->M costs 136 (the optimum). *)
  let place = function 0 -> 2 | 1 -> 1 | 2 -> 0 | _ -> assert false in
  Helpers.check_close "optimal runtime" 136.0
    (Timing.runtime ~weights:acetyl_weights ~place Catalog.qec3_encode)

let test_timing_intermediate_times () =
  (* Column-by-column check of Table 1. *)
  let place = function 0 -> 0 | 1 -> 2 | 2 -> 1 | _ -> assert false in
  let prefix count =
    Circuit.make ~qubits:3 (Qcp_util.Listx.take count (Circuit.gates Catalog.qec3_encode))
  in
  let times count =
    Timing.finish_times ~weights:acetyl_weights ~place (prefix count)
  in
  let after_ya = times 2 in
  Helpers.check_close "time[a] after Ya90" 8.0 after_ya.(0);
  let after_zzab = times 3 in
  Helpers.check_close "time[a] after ZZab" 680.0 after_zzab.(0);
  Helpers.check_close "time[b] after ZZab" 680.0 after_zzab.(1);
  let after_zzbc = times 7 in
  Helpers.check_close "time[b] after ZZbc" 769.0 after_zzbc.(1);
  Helpers.check_close "time[c] after ZZbc" 769.0 after_zzbc.(2)

let test_timing_start_offsets () =
  let c = Circuit.make ~qubits:2 [ Gate.zz 0 1 90.0 ] in
  let t =
    Timing.finish_times ~start:[| 5.0; 20.0 |] ~weights:uniform_weights
      ~place:Timing.identity_place c
  in
  Helpers.check_close "waits for the later qubit" 30.0 t.(0);
  Helpers.check_close "both synchronized" 30.0 t.(1)

let test_timing_reuse_cap () =
  (* Five ZZ(90) on one pair: uncapped 50, capped at 3 -> 30. *)
  let c = Circuit.make ~qubits:2 (List.init 5 (fun _ -> Gate.zz 0 1 90.0)) in
  Helpers.check_close "uncapped" 50.0
    (Timing.runtime ~weights:uniform_weights ~place:Timing.identity_place c);
  Helpers.check_close "capped" 30.0
    (Timing.runtime ~reuse_cap:3.0 ~weights:uniform_weights
       ~place:Timing.identity_place c)

let test_timing_reuse_cap_broken_run () =
  (* A gate on an overlapping pair breaks the run. *)
  let c =
    Circuit.make ~qubits:3
      [
        Gate.zz 0 1 90.0; Gate.zz 0 1 90.0; Gate.zz 0 1 90.0; Gate.zz 0 1 90.0;
        Gate.zz 1 2 90.0; Gate.zz 0 1 90.0;
      ]
  in
  (* capped: pair (0,1) run contributes 3, then (1,2) is 1, then a fresh
     (0,1) run contributes 1: (3 + 1 + 1) * 10 = 50. *)
  Helpers.check_close "runs reset" 50.0
    (Timing.runtime ~reuse_cap:3.0 ~weights:uniform_weights
       ~place:Timing.identity_place c)

let test_timing_reuse_cap_survives_local_gates () =
  (* Single-qubit gates do not interrupt a run (local corrections are free in
     the [26] decomposition), but their own time still accrues. *)
  let c =
    Circuit.make ~qubits:2
      [ Gate.zz 0 1 90.0; Gate.ry 0 90.0; Gate.zz 0 1 90.0; Gate.zz 0 1 90.0;
        Gate.zz 0 1 90.0 ]
  in
  (* Interactions contribute min(4,3)=3 weights = 30, plus one Ry = 1. *)
  Helpers.check_close "cap across local gates" 31.0
    (Timing.runtime ~reuse_cap:3.0 ~weights:uniform_weights
       ~place:Timing.identity_place c)

let test_timing_sequential () =
  (* Sequential model: levels execute one after the other at the slowest
     gate's pace. *)
  let c =
    Circuit.make ~qubits:4
      [ Gate.zz 0 1 90.0; Gate.ry 2 90.0; Gate.zz 2 3 90.0 ]
  in
  (* Levels: [zz01, ry2] then [zz23]: 10 + 10 = 20. *)
  Helpers.check_close "sequential" 20.0
    (Timing.runtime ~model:Timing.Sequential ~weights:uniform_weights
       ~place:Timing.identity_place c);
  (* ASAP lets zz23 start after ry2 at time 1: total 11. *)
  Helpers.check_close "asap overlap" 11.0
    (Timing.runtime ~weights:uniform_weights ~place:Timing.identity_place c)

let test_timing_bounded_stage_advance () =
  (* A bounded sweep that completes must leave clocks bit-identical to the
     unbounded sweep; one whose cutoff lies below the makespan must abort. *)
  let place = [| 0; 2; 1 |] in
  let start = [| 3.0; 0.0; 7.0 |] in
  let stage = Timing.compile Catalog.qec3_encode in
  let advance ?(cutoff = infinity) ?(model = Timing.Asap) () =
    let scratch = Timing.make_scratch () in
    Timing.stage_start scratch start;
    let completed =
      Timing.stage_advance ~model ~cutoff ~reuse_cap:(Some 3.0)
        ~weights:acetyl_weights ~place scratch stage
    in
    (completed, Timing.stage_clocks scratch)
  in
  let _, reference = advance () in
  let makespan = Array.fold_left Float.max 0.0 reference in
  let check_identical label cutoff =
    let completed, clocks = advance ~cutoff () in
    Alcotest.(check bool) (label ^ " completes") true completed;
    Array.iteri
      (fun v t ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s clock %d bit-identical" label v)
          reference.(v) t)
      clocks
  in
  check_identical "slack cutoff" (makespan +. 1.0);
  (* The abort criterion is *strictly* exceeding the cutoff, so a cutoff
     equal to the makespan still completes -- the tie-break invariant the
     placer's incumbent pruning relies on. *)
  check_identical "exact cutoff" makespan;
  let completed, _ = advance ~cutoff:(makespan -. 1.0) () in
  Alcotest.(check bool) "tight cutoff aborts" false completed;
  let completed, _ = advance ~cutoff:0.0 () in
  Alcotest.(check bool) "zero cutoff aborts" false completed;
  (* Same contract under the sequential-levels model. *)
  let _, seq_reference = advance ~model:Timing.Sequential () in
  let seq_makespan = Array.fold_left Float.max 0.0 seq_reference in
  let completed, seq_clocks =
    advance ~model:Timing.Sequential ~cutoff:seq_makespan ()
  in
  Alcotest.(check bool) "sequential exact cutoff completes" true completed;
  Array.iteri
    (fun v t ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "sequential clock %d bit-identical" v)
        seq_reference.(v) t)
    seq_clocks;
  let completed, _ =
    advance ~model:Timing.Sequential ~cutoff:(seq_makespan -. 1.0) ()
  in
  Alcotest.(check bool) "sequential tight cutoff aborts" false completed

let test_random_circuit_counts () =
  let rng = Qcp_util.Rng.create 1 in
  let c, stages = Random_circuit.hidden_stages rng ~n:8 in
  Alcotest.(check int) "stages = log2 8" 3 stages;
  Alcotest.(check int) "gates = n*log2(n)^2 (Table 4 row 8 -> 72)" 72
    (Circuit.gate_count c);
  Alcotest.(check int) "all two-qubit" 72 (Circuit.two_qubit_count c)

let test_random_circuit_table4_row16 () =
  let rng = Qcp_util.Rng.create 2 in
  let c, stages = Random_circuit.hidden_stages rng ~n:16 in
  Alcotest.(check int) "stages" 4 stages;
  Alcotest.(check int) "gates (Table 4 row 16 -> 256)" 256 (Circuit.gate_count c)

let test_qc_format_roundtrip () =
  let circuits =
    [ Catalog.qec3_encode; Catalog.qft 4; Catalog.steane_x1; Catalog.cat_state 5 ]
  in
  List.iter
    (fun c ->
      let text = Qc_format.print c in
      Alcotest.(check bool) "roundtrip" true (Circuit.equal c (Qc_format.parse text)))
    circuits

let test_qc_format_errors () =
  let expect_error text =
    match Qc_format.parse text with
    | exception Qc_format.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "ry 0 90";
  expect_error "qubits 2\nfrobnicate 0";
  expect_error "qubits 2\nry x 90";
  expect_error "qubits 1\ncnot 0 1";
  expect_error ""

let test_sub_and_append () =
  let c = Catalog.qft 4 in
  let first = Circuit.sub c ~first:0 ~count:3 in
  let rest = Circuit.sub c ~first:3 ~count:(Circuit.gate_count c - 3) in
  Alcotest.(check bool) "split/append" true
    (Circuit.equal c (Circuit.append first rest))

let qcheck_timing_stage_threading =
  (* Threading finish times through split stages equals timing the whole
     circuit at once — the invariant the placer's incremental scoring and
     the schedule compiler both rely on. *)
  QCheck.Test.make ~name:"finish-time threading composes" ~count:60
    QCheck.(triple small_int (int_range 2 8) (int_range 0 20))
    (fun (seed, n, cut_raw) ->
      let rng = Qcp_util.Rng.create seed in
      let c, _ = Random_circuit.hidden_stages rng ~n in
      let total = Circuit.gate_count c in
      let cut = cut_raw mod (total + 1) in
      let first = Circuit.sub c ~first:0 ~count:cut in
      let rest = Circuit.sub c ~first:cut ~count:(total - cut) in
      let direct =
        Timing.finish_times ~weights:uniform_weights ~place:Timing.identity_place c
      in
      let mid =
        Timing.finish_times ~weights:uniform_weights ~place:Timing.identity_place
          first
      in
      let threaded =
        Timing.finish_times ~start:mid ~weights:uniform_weights
          ~place:Timing.identity_place rest
      in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) direct threaded)

let qcheck_runtime_invariant_under_relabeling =
  (* Renaming qubits while renaming the placement accordingly cannot change
     the runtime. *)
  QCheck.Test.make ~name:"runtime invariant under qubit relabeling" ~count:60
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let c, _ = Random_circuit.hidden_stages rng ~n in
      let relabel = Qcp_util.Rng.permutation rng n in
      let c' = Circuit.map_qubits (fun q -> relabel.(q)) c in
      let place = Array.init n (fun q -> q) in
      let place' = Array.make n 0 in
      Array.iteri (fun q v -> place'.(relabel.(q)) <- v) place;
      let r =
        Timing.runtime ~weights:uniform_weights ~place:(fun q -> place.(q)) c
      in
      let r' =
        Timing.runtime ~weights:uniform_weights ~place:(fun q -> place'.(q)) c'
      in
      Float.abs (r -. r') < 1e-9)

let qcheck_levelize_always_valid =
  QCheck.Test.make ~name:"levelization always yields disjoint levels" ~count:60
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let c, _ = Random_circuit.hidden_stages rng ~n in
      let levels = Levelize.levels c in
      Levelize.check levels
      && List.length (List.concat levels) = Circuit.gate_count c)

let qcheck_asap_at_most_sequential =
  QCheck.Test.make ~name:"ASAP runtime <= sequential runtime" ~count:60
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let c, _ = Random_circuit.hidden_stages rng ~n in
      let asap =
        Timing.runtime ~weights:uniform_weights ~place:Timing.identity_place c
      in
      let seq =
        Timing.runtime ~model:Timing.Sequential ~weights:uniform_weights
          ~place:Timing.identity_place c
      in
      asap <= seq +. 1e-9)

let qcheck_reuse_cap_never_hurts =
  QCheck.Test.make ~name:"reuse cap never increases runtime" ~count:60
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let c, _ = Random_circuit.hidden_stages rng ~n in
      let plain =
        Timing.runtime ~weights:uniform_weights ~place:Timing.identity_place c
      in
      let capped =
        Timing.runtime ~reuse_cap:3.0 ~weights:uniform_weights
          ~place:Timing.identity_place c
      in
      capped <= plain +. 1e-9)

let suite =
  [
    Alcotest.test_case "gate durations" `Quick test_gate_durations;
    Alcotest.test_case "gate qubits" `Quick test_gate_qubits;
    Alcotest.test_case "gate map" `Quick test_gate_map;
    Alcotest.test_case "circuit validation" `Quick test_circuit_validation;
    Alcotest.test_case "circuit counts" `Quick test_circuit_counts;
    Alcotest.test_case "catalog paper counts" `Quick test_catalog_paper_counts;
    Alcotest.test_case "catalog structures" `Quick test_catalog_structures;
    Alcotest.test_case "catalog by_name" `Quick test_catalog_by_name;
    Alcotest.test_case "levelize disjoint" `Quick test_levelize_disjoint;
    Alcotest.test_case "levelize parallelism" `Quick test_levelize_parallelism;
    Alcotest.test_case "timing asap chain" `Quick test_timing_asap_chain;
    Alcotest.test_case "timing asap parallel" `Quick test_timing_asap_parallel;
    Alcotest.test_case "timing Table 1 (770)" `Quick test_timing_table1;
    Alcotest.test_case "timing Example 3 optimum (136)" `Quick test_timing_example3_optimal;
    Alcotest.test_case "timing Table 1 columns" `Quick test_timing_intermediate_times;
    Alcotest.test_case "timing start offsets" `Quick test_timing_start_offsets;
    Alcotest.test_case "timing reuse cap" `Quick test_timing_reuse_cap;
    Alcotest.test_case "timing reuse cap broken run" `Quick test_timing_reuse_cap_broken_run;
    Alcotest.test_case "timing reuse cap across 1q gates" `Quick
      test_timing_reuse_cap_survives_local_gates;
    Alcotest.test_case "timing sequential model" `Quick test_timing_sequential;
    Alcotest.test_case "timing bounded stage advance" `Quick
      test_timing_bounded_stage_advance;
    Alcotest.test_case "random circuit counts" `Quick test_random_circuit_counts;
    Alcotest.test_case "random circuit Table-4 row" `Quick test_random_circuit_table4_row16;
    Alcotest.test_case "qc format roundtrip" `Quick test_qc_format_roundtrip;
    Alcotest.test_case "qc format errors" `Quick test_qc_format_errors;
    Alcotest.test_case "sub and append" `Quick test_sub_and_append;
    QCheck_alcotest.to_alcotest qcheck_timing_stage_threading;
    QCheck_alcotest.to_alcotest qcheck_runtime_invariant_under_relabeling;
    QCheck_alcotest.to_alcotest qcheck_levelize_always_valid;
    QCheck_alcotest.to_alcotest qcheck_asap_at_most_sequential;
    QCheck_alcotest.to_alcotest qcheck_reuse_cap_never_hurts;
  ]
