(* Tests for the pulse-schedule compiler and random environments. *)

module Schedule = Qcp.Schedule
module Placer = Qcp.Placer
module Options = Qcp.Options
module Molecules = Qcp_env.Molecules
module Catalog = Qcp_circuit.Catalog

let place_exn options env circuit =
  match Placer.place options env circuit with
  | Placer.Placed p -> p
  | Placer.Unplaceable msg -> Alcotest.failf "unplaceable: %s" msg

let test_schedule_makespan_matches_runtime () =
  List.iter
    (fun (env, circuit, threshold) ->
      let p = place_exn (Options.default ~threshold) env circuit in
      let schedule = Schedule.of_program p in
      Helpers.check_close ~eps:1e-6 "makespan = runtime" (Placer.runtime p)
        (Schedule.makespan schedule))
    [
      (Molecules.acetyl_chloride, Catalog.qec3_encode, 100.0);
      (Molecules.trans_crotonic_acid, Catalog.qft 5, 100.0);
      (Molecules.trans_crotonic_acid, Catalog.qec5_encode, 100.0);
      (Molecules.boc_glycine_fluoride, Catalog.phase_estimation 4, 200.0);
    ]

let test_schedule_consistency () =
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env (Catalog.qft 6) in
  let s = Schedule.of_program p in
  Alcotest.(check bool) "no overlapping pulses" true (Schedule.is_consistent s)

let test_schedule_events_counted () =
  (* qec3 has five timed gates (free Rz's are elided). *)
  let env = Molecules.acetyl_chloride in
  let p = place_exn (Options.default ~threshold:100.0) env Catalog.qec3_encode in
  let s = Schedule.of_program p in
  Alcotest.(check int) "five pulses" 5 (Schedule.event_count s)

let test_schedule_events_ordered () =
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env (Catalog.qft 5) in
  let s = Schedule.of_program p in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "chronological" true (a.Schedule.start <= b.Schedule.start);
      check rest
    | [ _ ] | [] -> ()
  in
  check (Schedule.events s)

let test_schedule_busy_time () =
  let env = Molecules.acetyl_chloride in
  let p = place_exn (Options.default ~threshold:100.0) env Catalog.qec3_encode in
  let s = Schedule.of_program p in
  (* The optimal mapping: a->C2, b->C1, c->M; qubit b (on C1) is busy with
     Ya? no: C1 carries ZZab(89) + ZZbc(38) + Yb(8) = 135. *)
  Helpers.check_close "C1 busy" 135.0 (Schedule.busy_time s 1);
  Helpers.check_close "C2 busy" 90.0 (Schedule.busy_time s 2)

let test_schedule_swap_marks () =
  let env = Molecules.trans_crotonic_acid in
  let p = place_exn (Options.default ~threshold:100.0) env (Catalog.qft 6) in
  let s = Schedule.of_program p in
  Alcotest.(check bool) "has swap events" true
    (List.exists (fun e -> e.Schedule.is_swap) (Schedule.events s));
  Alcotest.(check bool) "has compute events" true
    (List.exists (fun e -> not e.Schedule.is_swap) (Schedule.events s))

let test_schedule_sequential_model () =
  let env = Molecules.trans_crotonic_acid in
  let options =
    { (Options.default ~threshold:100.0) with
      Options.model = Qcp_circuit.Timing.Sequential }
  in
  let p = place_exn options env (Catalog.qft 5) in
  let s = Schedule.of_program p in
  Helpers.check_close ~eps:1e-6 "sequential makespan" (Placer.runtime p)
    (Schedule.makespan s);
  Alcotest.(check bool) "consistent" true (Schedule.is_consistent s)

let test_schedule_render () =
  let env = Molecules.acetyl_chloride in
  let p = place_exn (Options.default ~threshold:100.0) env Catalog.qec3_encode in
  let text = Schedule.render p in
  Alcotest.(check bool) "labels nuclei" true (Helpers.contains ~needle:"C1" text);
  Alcotest.(check bool) "has pulses" true (Helpers.contains ~needle:"#" text)

let qcheck_schedule_always_consistent =
  QCheck.Test.make ~name:"schedules are always overlap-free" ~count:15
    QCheck.(pair small_int (int_range 4 9))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
      let env = Qcp_env.Environment.chain n in
      match Placer.place (Options.fast ~threshold:50.0) env circuit with
      | Placer.Unplaceable _ -> false
      | Placer.Placed p ->
        let s = Schedule.of_program p in
        Schedule.is_consistent s
        && Float.abs (Schedule.makespan s -. Placer.runtime p) < 1e-6)

(* --------------------------- random env --------------------------- *)

let test_random_env_structure () =
  let rng = Qcp_util.Rng.create 3 in
  for _ = 1 to 5 do
    let n = 4 + Qcp_util.Rng.int rng 8 in
    let env = Qcp_env.Random_env.molecule rng ~n in
    Alcotest.(check int) "size" n (Qcp_env.Environment.size env);
    (* All couplings finite, so connectable. *)
    (match Qcp_env.Environment.connected_adjacency env ~threshold:200.0 with
    | Some g -> Alcotest.(check bool) "connected" true (Qcp_graph.Paths.is_connected g)
    | None -> Alcotest.fail "expected a connected closure");
    (* Bond band is fast: a threshold of 200 keeps the tree connected. *)
    let bonds = Qcp_env.Environment.adjacency env ~threshold:200.0 in
    Alcotest.(check bool) "bond graph connected at 200" true
      (Qcp_graph.Paths.is_connected bonds)
  done

let qcheck_pipeline_on_random_molecules =
  (* Full pipeline stress: place a QFT on random molecules at random
     thresholds; whenever placement succeeds the program must verify. *)
  QCheck.Test.make ~name:"full pipeline on random molecules" ~count:12
    QCheck.(pair small_int (int_range 5 8))
    (fun (seed, n) ->
      let rng = Qcp_util.Rng.create seed in
      let env = Qcp_env.Random_env.molecule rng ~n in
      let threshold = Qcp_env.Random_env.interesting_threshold rng env in
      let circuit = Catalog.qft (n - 1) in
      match Placer.place (Options.default ~threshold) env circuit with
      | Placer.Unplaceable _ -> true (* legitimate at low thresholds *)
      | Placer.Placed p ->
        Qcp.Verify.equivalent ~inputs:[ 0; 1; (1 lsl (n - 1)) - 1 ] p
        && Schedule.is_consistent (Schedule.of_program p))

let suite =
  [
    Alcotest.test_case "makespan = runtime" `Quick test_schedule_makespan_matches_runtime;
    Alcotest.test_case "schedule consistent" `Quick test_schedule_consistency;
    Alcotest.test_case "event count" `Quick test_schedule_events_counted;
    Alcotest.test_case "events ordered" `Quick test_schedule_events_ordered;
    Alcotest.test_case "busy time" `Quick test_schedule_busy_time;
    Alcotest.test_case "swap marks" `Quick test_schedule_swap_marks;
    Alcotest.test_case "sequential model" `Quick test_schedule_sequential_model;
    Alcotest.test_case "render" `Quick test_schedule_render;
    QCheck_alcotest.to_alcotest qcheck_schedule_always_consistent;
    Alcotest.test_case "random env structure" `Quick test_random_env_structure;
    QCheck_alcotest.to_alcotest qcheck_pipeline_on_random_molecules;
  ]
