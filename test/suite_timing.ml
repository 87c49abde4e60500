(* The one timing recurrence against the separate loops it replaced, kept
   verbatim below as references: the logical-clock ASAP loop and
   sequential fold behind [finish_times], and the bounded physical-clock
   twin behind [stage_advance ~cutoff].  Plus the allocation of
   [finish_times] and the charge of a capped repeat over an absent
   coupling. *)

module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Timing = Qcp_circuit.Timing
module Random_circuit = Qcp_circuit.Random_circuit
module Environment = Qcp_env.Environment
module Rng = Qcp_util.Rng

(* ------------------------------------------------------------------ *)
(* Reference loops, verbatim.                                          *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  module Levelize = Qcp_circuit.Levelize

  type weights = Timing.weights = {
    single : int -> float;
    coupled : int -> int -> float;
  }

  let capped reuse_cap t =
    match reuse_cap with None -> t | Some cap -> Float.min cap t

  let asap_times ?reuse_cap ~start ~weights ~place circuit =
    let n = Circuit.qubits circuit in
    let time = Array.copy start in
    let current_pair = Array.make n None in
    let run_acc = Array.make n 0.0 in
    let step gate =
      match gate with
      | Gate.G1 (_, q) ->
        (* Local gates do not break an interaction run (see interface note). *)
        time.(q) <- time.(q) +. (weights.single (place q) *. Gate.duration gate)
      | Gate.G2 (_, a, b) ->
        let pair = Some (min a b, max a b) in
        let t = Gate.duration gate in
        let effective =
          if current_pair.(a) = pair && current_pair.(b) = pair then begin
            match reuse_cap with
            | None ->
              run_acc.(a) <- run_acc.(a) +. t;
              run_acc.(b) <- run_acc.(a);
              t
            | Some cap ->
              let acc = run_acc.(a) in
              let eff = Float.min cap (acc +. t) -. Float.min cap acc in
              run_acc.(a) <- acc +. t;
              run_acc.(b) <- run_acc.(a);
              eff
          end
          else begin
            (* A new run on this pair; runs on other pairs through a or b end. *)
            current_pair.(a) <- pair;
            current_pair.(b) <- pair;
            run_acc.(a) <- t;
            run_acc.(b) <- t;
            capped reuse_cap t
          end
        in
        let finish =
          Float.max time.(a) time.(b) +. (weights.coupled (place a) (place b) *. effective)
        in
        time.(a) <- finish;
        time.(b) <- finish
    in
    List.iter step (Circuit.gates circuit);
    time

  let sequential_times ?reuse_cap ~start ~weights ~place circuit =
    let n = Circuit.qubits circuit in
    let ready = Array.fold_left Float.max 0.0 start in
    let gate_cost gate =
      match gate with
      | Gate.G1 (_, q) -> weights.single (place q) *. Gate.duration gate
      | Gate.G2 (_, a, b) ->
        weights.coupled (place a) (place b) *. capped reuse_cap (Gate.duration gate)
    in
    let total =
      List.fold_left
        (fun acc level ->
          acc +. List.fold_left (fun m gate -> Float.max m (gate_cost gate)) 0.0 level)
        ready
        (Levelize.levels circuit)
    in
    Array.make n total

  let[@inline] pair_finish ?reuse_cap ~register ~time ~pair_code ~run_acc
      ~weights pa pb t =
    let lo = min pa pb and hi = max pa pb in
    let code = (lo * register) + hi in
    let effective =
      if pair_code.(pa) = code && pair_code.(pb) = code then begin
        match reuse_cap with
        | None ->
          run_acc.(pa) <- run_acc.(pa) +. t;
          run_acc.(pb) <- run_acc.(pa);
          t
        | Some cap ->
          let acc = run_acc.(pa) in
          let eff = Float.min cap (acc +. t) -. Float.min cap acc in
          run_acc.(pa) <- acc +. t;
          run_acc.(pb) <- run_acc.(pa);
          eff
      end
      else begin
        pair_code.(pa) <- code;
        pair_code.(pb) <- code;
        run_acc.(pa) <- t;
        run_acc.(pb) <- t;
        capped reuse_cap t
      end
    in
    Float.max time.(pa) time.(pb) +. (weights.coupled pa pb *. effective)

  (* Private: aborts a bounded sweep the moment a clock exceeds the cutoff. *)
  exception Cutoff_exceeded

  (* The bounded twin of {!asap_placed_into}: every clock update is checked
     against [limit].  Sound as an early refutation because the recurrence is
     monotone -- a gate only ever *raises* the clocks it touches (durations
     and weights are nonnegative, and a two-qubit finish is max of the two
     clocks plus a nonnegative delay) -- so once any clock exceeds [limit]
     the final makespan must too.  Kept as a separate loop so the unbounded
     path pays no per-gate branch. *)
  let asap_placed_bounded ?reuse_cap ~limit ~register ~time ~pair_code ~run_acc
      ~weights ~place circuit =
    let step gate =
      match gate with
      | Gate.G1 (_, q) ->
        let p = place q in
        let finish = time.(p) +. (weights.single p *. Gate.duration gate) in
        if finish > limit then raise Cutoff_exceeded;
        time.(p) <- finish
      | Gate.G2 (_, a, b) ->
        let pa = place a and pb = place b in
        let finish =
          pair_finish ?reuse_cap ~register ~time ~pair_code ~run_acc ~weights pa
            pb (Gate.duration gate)
        in
        if finish > limit then raise Cutoff_exceeded;
        time.(pa) <- finish;
        time.(pb) <- finish
    in
    List.iter step (Circuit.gates circuit)

  (* [stage_advance] from physical clocks [start]: the verdict and the
     clocks it leaves, partial ones included.  A sequential stage is one
     [sequential_times] fold from the latest physical clock. *)
  let stage_advance ~model ?reuse_cap ~limit ~weights ~place ~start circuit =
    let register = Array.length start in
    match model with
    | Timing.Asap ->
      let time = Array.copy start in
      let verdict =
        match
          asap_placed_bounded ?reuse_cap ~limit ~register ~time
            ~pair_code:(Array.make register (-1))
            ~run_acc:(Array.make register 0.0) ~weights ~place circuit
        with
        | () -> true
        | exception Cutoff_exceeded -> false
      in
      (verdict, time)
    | Timing.Sequential ->
      let ready = Array.fold_left Float.max 0.0 start in
      let total =
        (sequential_times ?reuse_cap
           ~start:(Array.make (Circuit.qubits circuit) ready)
           ~weights ~place circuit).(0)
      in
      if total > limit then (false, Array.copy start)
      else (true, Array.make register total)
end

(* ------------------------------------------------------------------ *)
(* Property: the one loop equals the references bit for bit.            *)
(* ------------------------------------------------------------------ *)

let bits a = Array.map Int64.bits_of_float a

let random_gate rng n =
  let q = Rng.int rng n in
  match Rng.int rng 5 with
  | 0 -> Gate.rx q (Rng.float rng 180.0)
  | 1 -> Gate.rz q 90.0
  | 2 -> Gate.h q
  | _ ->
    let r = (q + 1 + Rng.int rng (n - 1)) mod n in
    if Rng.bool rng then Gate.zz q r (Rng.float rng 270.0) else Gate.cnot q r

(* A [hidden_stages] circuit (weight-3 runs on chain neighbours) with
   random single-qubit gates, ZZ rotations and CNOTs mixed in, so runs
   are capped, interrupted and resumed. *)
let mixed_circuit rng n =
  let circuit, _ = Random_circuit.hidden_stages rng ~n in
  let gates =
    List.concat_map
      (fun gate ->
        if Rng.int rng 4 = 0 then [ random_gate rng n; gate ] else [ gate ])
      (Circuit.gates circuit)
  in
  Circuit.make ~qubits:n gates

(* Finite, asymmetric delays on an [m]-vertex register. *)
let random_weights rng m =
  let d = Array.init m (fun _ -> Array.init m (fun _ -> 1.0 +. Rng.float rng 99.0)) in
  { Timing.single = (fun v -> d.(v).(v)); coupled = (fun u v -> d.(u).(v)) }

let models =
  [
    (Timing.Asap, None);
    (Timing.Asap, Some 3.0);
    (Timing.Asap, Some 1.5);
    (Timing.Sequential, None);
    (Timing.Sequential, Some 3.0);
    (Timing.Sequential, Some 1.5);
  ]

let test_matches_reference () =
  let rng = Rng.create 2718 in
  let compared = ref 0 and refuted = ref 0 in
  let scratch = Timing.make_scratch () in
  for round = 1 to 60 do
    let n = 2 + Rng.int rng 9 in
    let m = n + Rng.int rng 4 in
    let circuit = mixed_circuit rng n in
    let weights = random_weights rng m in
    let injective = Array.sub (Rng.permutation rng m) 0 n in
    let placement =
      if round mod 3 = 0 then Array.init n (fun _ -> Rng.int rng m) else injective
    in
    let place q = placement.(q) in
    let logical_start =
      if Rng.bool rng then None
      else Some (Array.init n (fun _ -> Rng.float rng 50.0))
    in
    let physical_start = Array.init m (fun _ -> Rng.float rng 50.0) in
    List.iter
      (fun (model, reuse_cap) ->
        (* finish_times / runtime over the logical register. *)
        let start = Option.value logical_start ~default:(Array.make n 0.0) in
        let expected =
          match model with
          | Timing.Asap -> Reference.asap_times ?reuse_cap ~start ~weights ~place circuit
          | Timing.Sequential ->
            Reference.sequential_times ?reuse_cap ~start ~weights ~place circuit
        in
        let got =
          Timing.finish_times ~model ?reuse_cap ?start:logical_start ~weights
            ~place circuit
        in
        if bits got <> bits expected then
          Alcotest.failf "round %d: finish_times differs from the reference" round;
        let runtime =
          Timing.runtime ~model ?reuse_cap ?start:logical_start ~weights ~place
            circuit
        in
        if
          Int64.bits_of_float runtime
          <> Int64.bits_of_float (Array.fold_left Float.max 0.0 expected)
        then Alcotest.failf "round %d: runtime differs from the reference" round;
        (* stage_advance over the physical register, at every cutoff. *)
        let _, full =
          Reference.stage_advance ~model ?reuse_cap ~limit:infinity ~weights
            ~place ~start:physical_start circuit
        in
        let makespan = Array.fold_left Float.max 0.0 full in
        List.iter
          (fun cutoff ->
            let expected, expected_clocks =
              Reference.stage_advance ~model ?reuse_cap
                ~limit:(Option.value cutoff ~default:infinity)
                ~weights ~place ~start:physical_start circuit
            in
            Timing.stage_start scratch physical_start;
            let verdict =
              Timing.stage_advance ~model ?reuse_cap ?cutoff ~weights ~place
                scratch circuit
            in
            if verdict <> expected then
              Alcotest.failf "round %d: verdict %b, reference %b" round verdict
                expected;
            if not verdict then incr refuted;
            (* Refuted sweeps are compared too: both stop before storing
               the clock that exceeds the cutoff. *)
            if bits (Timing.stage_clocks scratch) <> bits expected_clocks then
              Alcotest.failf "round %d: stage clocks differ (verdict %b)" round
                verdict;
            incr compared)
          [
            None;
            Some makespan;
            Some (Float.succ makespan);
            Some (Float.pred makespan);
            Some (Rng.float rng makespan);
          ])
      models
  done;
  Alcotest.(check bool) "compared" true (!compared > 1500);
  Alcotest.(check bool) "some cutoffs refute" true (!refuted > 300)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let words_allocated f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* [finish_times] allocates its clock arrays and the folded weights, and
   nothing per gate.  The weights return literal constants and the
   circuit's gates have stored durations ([hidden_stages] uses one custom
   weight-3 gate), so the count is Timing's own: a weight callback that
   reads a float array, or the duration of an angle gate, returns a
   freshly boxed float per call whoever calls it. *)
let test_finish_times_allocation () =
  let weights =
    { Timing.single = (fun _ -> 1.0); coupled = (fun u v -> if u < v then 2.0 else 2.5) }
  in
  let n = 16 in
  let circuit gates_per_stage =
    Random_circuit.hidden_stages_custom (Rng.create 31) ~n ~stages:8 ~gates_per_stage
  in
  let small = circuit 150 and large = circuit 300 in
  Alcotest.(check int) "1,200 gates" 1200 (Circuit.gate_count small);
  let place q = (q * 5) mod n in
  let words ?reuse_cap circuit =
    let run () =
      ignore
        (Timing.finish_times ?reuse_cap ~weights ~place circuit : float array)
    in
    run ();
    words_allocated run
  in
  List.iter
    (fun reuse_cap ->
      let w_small = words ?reuse_cap small and w_large = words ?reuse_cap large in
      if w_small <> w_large then
        Alcotest.failf "finish_times allocates %.0f words on 1,200 gates, %.0f on 2,400"
          w_small w_large;
      (* Three clock arrays of n + 1 words, plus a few closures. *)
      let ceiling = float_of_int ((3 * (n + 1)) + 64) in
      if w_small > ceiling then
        Alcotest.failf "finish_times allocates %.0f words (ceiling %.0f)" w_small
          ceiling)
    [ None; Some 3.0 ]

(* ------------------------------------------------------------------ *)
(* A capped repeat over an absent coupling                             *)
(* ------------------------------------------------------------------ *)

(* Four ZZ(90) on one pair under a cap of 3: the fourth gate's effective
   duration is 0, which must add nothing -- not [infinity *. 0.], NaN. *)
let repeats = Circuit.make ~qubits:2 (List.init 4 (fun _ -> Gate.zz 0 1 90.0))

let check_infinite label t =
  if t <> infinity then
    Alcotest.failf "%s: expected inf, got %g" label t

let test_absent_coupling_repeat () =
  let weights = { Timing.single = (fun _ -> 1.0); coupled = (fun _ _ -> infinity) } in
  List.iter
    (fun model ->
      check_infinite "Timing.runtime"
        (Timing.runtime ~model ~reuse_cap:3.0 ~weights ~place:Timing.identity_place
           repeats))
    [ Timing.Asap; Timing.Sequential ];
  (* A zero-duration gate on that pair costs nothing under either model. *)
  let free = Circuit.make ~qubits:2 [ Gate.zz 0 1 0.0 ] in
  List.iter
    (fun model ->
      Alcotest.(check (float 0.0)) "zero-duration gate" 0.0
        (Timing.runtime ~model ~weights ~place:Timing.identity_place free))
    [ Timing.Asap; Timing.Sequential ];
  let env = Environment.chain 4 in
  let placement = [| 0; 2 |] in
  check_infinite "Baselines.evaluate"
    (Qcp.Baselines.evaluate ~reuse_cap:3.0 env repeats ~placement);
  (* The schedule re-times the same stage with its own copy of the
     recurrence and must agree. *)
  match
    Qcp.Placer.place (Qcp.Options.default ~threshold:100.0) env
      (Circuit.make ~qubits:2 [ Gate.zz 0 1 90.0 ])
  with
  | Qcp.Placer.Unplaceable reason -> Alcotest.failf "unplaceable: %s" reason
  | Qcp.Placer.Placed program ->
    let makespan model circuit =
      let options =
        { program.Qcp.Placer.options with Qcp.Options.model; reuse_cap = Some 3.0 }
      in
      Qcp.Schedule.iter_timed_gates
        {
          program with
          Qcp.Placer.options;
          stages = [ Qcp.Placer.Compute { placement; circuit } ];
        }
        ~f:(fun ~stage:_ ~is_swap:_ ~gate:_ ~vertices:_ ~start:_ ~finish:_ -> ())
    in
    List.iter
      (fun model ->
        check_infinite "Schedule.iter_timed_gates" (makespan model repeats);
        Alcotest.(check (float 0.0)) "scheduled zero-duration gate" 0.0
          (makespan model free))
      [ Timing.Asap; Timing.Sequential ]

let suite =
  [
    Alcotest.test_case "one loop = reference loops" `Quick test_matches_reference;
    Alcotest.test_case "finish_times allocation" `Quick test_finish_times_allocation;
    Alcotest.test_case "capped repeat on absent coupling" `Quick
      test_absent_coupling_repeat;
  ]
