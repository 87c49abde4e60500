(* The one timing recurrence against the separate loops it replaced, kept
   verbatim below as references: the logical-clock ASAP loop and
   sequential fold behind [finish_times], the bounded physical-clock twin
   behind [stage_advance ~cutoff], and the closure-weight loops the
   compiled kernel replaced.  Plus the allocation of [finish_times] and of
   the compiled stage sweeps, and the charge of a capped repeat over an
   absent coupling. *)

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

  type weights = {
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

(* The closure-weight loops the compiled kernel replaced, verbatim: one
   two-qubit step, the ASAP loop over the gate list, the packed-SWAP loop
   and the sequential fold, with delays read through [weights] closures
   and run state cleared per sweep. *)
module Closures = struct
  module Levelize = Qcp_circuit.Levelize
  module Swap_word = Qcp_circuit.Swap_word

  type weights = Reference.weights = {
    single : int -> float;
    coupled : int -> int -> float;
  }

  let capped reuse_cap t =
    match reuse_cap with None -> t | Some cap -> Float.min cap t

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
        (* A new run on this pair; runs on other pairs through pa or pb end. *)
        pair_code.(pa) <- code;
        pair_code.(pb) <- code;
        run_acc.(pa) <- t;
        run_acc.(pb) <- t;
        capped reuse_cap t
      end
    in
    let ready = Float.max time.(pa) time.(pb) in
    if effective = 0.0 then ready else ready +. (weights.coupled pa pb *. effective)

  let asap_gates ?reuse_cap ~limit ~register ~time ~pair_code ~run_acc ~weights
      ~place circuit =
    let rec go = function
      | [] -> true
      | (Gate.G1 (_, q) as gate) :: rest ->
        (* Local gates do not break an interaction run (see interface note). *)
        let p = place q in
        let finish = time.(p) +. (weights.single p *. Gate.duration gate) in
        if finish > limit then false
        else begin
          time.(p) <- finish;
          go rest
        end
      | (Gate.G2 (_, a, b) as gate) :: rest ->
        let pa = place a and pb = place b in
        let finish =
          pair_finish ?reuse_cap ~register ~time ~pair_code ~run_acc ~weights pa
            pb (Gate.duration gate)
        in
        if finish > limit then false
        else begin
          time.(pa) <- finish;
          time.(pb) <- finish;
          go rest
        end
    in
    go (Circuit.gates circuit)

  let swap_duration = Gate.duration (Gate.swap 0 1)

  let asap_swaps ?reuse_cap ~limit ~register ~time ~pair_code ~run_acc ~weights
      swaps =
    let count = Array.length swaps in
    let i = ref 0 in
    let ok = ref true in
    while !ok && !i < count do
      let w = swaps.(!i) in
      let pa = Swap_word.u w and pb = Swap_word.v w in
      if pa >= register || pb >= register then
        invalid_arg "Timing: swap vertex outside the physical register";
      let finish =
        pair_finish ?reuse_cap ~register ~time ~pair_code ~run_acc ~weights pa pb
          swap_duration
      in
      if finish > limit then ok := false
      else begin
        time.(pa) <- finish;
        time.(pb) <- finish;
        incr i
      end
    done;
    !ok

  let sequential_total ?reuse_cap ~ready ~weights ~place circuit =
    let gate_cost gate =
      match gate with
      | Gate.G1 (_, q) -> weights.single (place q) *. Gate.duration gate
      | Gate.G2 (_, a, b) ->
        let effective = capped reuse_cap (Gate.duration gate) in
        if effective = 0.0 then 0.0
        else weights.coupled (place a) (place b) *. effective
    in
    List.fold_left
      (fun acc level ->
        acc +. List.fold_left (fun m gate -> Float.max m (gate_cost gate)) 0.0 level)
      ready
      (Levelize.levels circuit)

  (* [stage_advance] from physical clocks [start] over closure weights:
     the verdict and the clocks it leaves, partial ones included. *)
  let stage_advance ~model ?reuse_cap ~limit ~weights ~place ~start circuit =
    let register = Array.length start in
    let time = Array.copy start in
    match model with
    | Timing.Asap ->
      let verdict =
        asap_gates ?reuse_cap ~limit ~register ~time
          ~pair_code:(Array.make register (-1))
          ~run_acc:(Array.make register 0.0) ~weights ~place circuit
      in
      (verdict, time)
    | Timing.Sequential ->
      let ready = Array.fold_left Float.max 0.0 time in
      let total = sequential_total ?reuse_cap ~ready ~weights ~place circuit in
      if total > limit then (false, time) else (true, Array.make register total)

  let stage_advance_swaps ?reuse_cap ~limit ~weights ~start swaps =
    let register = Array.length start in
    let time = Array.copy start in
    let verdict =
      asap_swaps ?reuse_cap ~limit ~register ~time
        ~pair_code:(Array.make register (-1))
        ~run_acc:(Array.make register 0.0) ~weights swaps
    in
    (verdict, time)

  let finish_times ~model ?reuse_cap ~start ~weights ~place circuit =
    let n = Circuit.qubits circuit in
    let time = Array.copy start in
    let weights =
      {
        single = (fun q -> weights.single (place q));
        coupled = (fun a b -> weights.coupled (place a) (place b));
      }
    in
    (match model with
    | Timing.Asap ->
      ignore
        (asap_gates ?reuse_cap ~limit:infinity ~register:n ~time
           ~pair_code:(Array.make n (-1)) ~run_acc:(Array.make n 0.0) ~weights
           ~place:Fun.id circuit
          : bool)
    | Timing.Sequential ->
      let ready = Array.fold_left Float.max 0.0 time in
      Array.fill time 0 n
        (sequential_total ?reuse_cap ~ready ~weights ~place:Fun.id circuit));
    time
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
  Array.init m (fun _ -> Array.init m (fun _ -> 1.0 +. Rng.float rng 99.0))

(* The closures the reference loops read a delay matrix through. *)
let closures d =
  { Reference.single = (fun v -> d.(v).(v)); coupled = (fun u v -> d.(u).(v)) }

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
    let reference = closures weights in
    let stage = Timing.compile circuit in
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
          | Timing.Asap ->
            Reference.asap_times ?reuse_cap ~start ~weights:reference ~place circuit
          | Timing.Sequential ->
            Reference.sequential_times ?reuse_cap ~start ~weights:reference ~place
              circuit
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
          Reference.stage_advance ~model ?reuse_cap ~limit:infinity
            ~weights:reference ~place ~start:physical_start circuit
        in
        let makespan = Array.fold_left Float.max 0.0 full in
        List.iter
          (fun cutoff ->
            let expected, expected_clocks =
              Reference.stage_advance ~model ?reuse_cap
                ~limit:(Option.value cutoff ~default:infinity)
                ~weights:reference ~place ~start:physical_start circuit
            in
            Timing.stage_start scratch physical_start;
            let verdict =
              Timing.stage_advance ~model ~reuse_cap
                ~cutoff:(Option.value cutoff ~default:infinity)
                ~weights ~place:placement scratch stage
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
(* Property: the compiled kernel equals the closure-weight loops.       *)
(* ------------------------------------------------------------------ *)

(* Angle gates (negative angles included), Custom gates of random and of
   zero weight, Z rotations and ZZ(0) (zero duration), and runs of 2-4
   repeats on one pair, so caps saturate, runs break and resume, and a
   capped repeat over an absent coupling adds nothing. *)
let kernel_circuit rng n =
  let gate () =
    let q = Rng.int rng n in
    let r = (q + 1 + Rng.int rng (n - 1)) mod n in
    match Rng.int rng 11 with
    | 0 -> [ Gate.rx q (Rng.float rng 360.0 -. 180.0) ]
    | 1 -> [ Gate.ry q 90.0; Gate.h r ]
    | 2 -> [ Gate.rz q 45.0 ]
    | 3 -> [ Gate.custom1 "u" (Rng.float rng 2.0) q ]
    | 4 -> [ Gate.custom1 "free" 0.0 q ]
    | 5 -> [ Gate.zz q r (Rng.float rng 540.0 -. 270.0) ]
    | 6 -> [ Gate.zz q r 0.0 ]
    | 7 -> [ Gate.cphase q r (Rng.float rng 180.0) ]
    | 8 -> [ Gate.custom2 "w" (Rng.float rng 3.0) q r ]
    | 9 -> [ Gate.cnot r q; Gate.swap q r ]
    | _ ->
      let g = if Rng.bool rng then Gate.zz q r 90.0 else Gate.cnot q r in
      List.init (2 + Rng.int rng 3) (fun _ -> g)
  in
  Circuit.make ~qubits:n (List.concat (List.init (10 + Rng.int rng 40) (fun _ -> gate ())))

(* Finite single-qubit delays; couplings finite, or absent ([infinity])
   with probability [absent]. *)
let kernel_weights rng m ~absent =
  Array.init m (fun u ->
      Array.init m (fun v ->
          if u = v then 1.0 +. Rng.float rng 9.0
          else if Rng.float rng 1.0 < absent then infinity
          else 1.0 +. Rng.float rng 99.0))

let caps = [ None; Some 1.0; Some 2.5; Some 3.0 ]

let test_kernel_matches_closures () =
  let rng = Rng.create 3141 in
  let compared = ref 0 and refuted = ref 0 and absent = ref 0 in
  (* One scratch for every sweep: stale run state must never leak. *)
  let scratch = Timing.make_scratch () in
  let check_stage ~round ~label ~expected:(verdict, clocks) got =
    if got <> verdict then
      Alcotest.failf "round %d: %s verdict %b, reference %b" round label got
        verdict;
    if not got then incr refuted;
    if bits (Timing.stage_clocks scratch) <> bits clocks then
      Alcotest.failf "round %d: %s clocks differ (verdict %b)" round label got;
    incr compared
  in
  let cutoffs makespan =
    [ infinity; makespan; Float.succ makespan; Float.pred makespan;
      Rng.float rng makespan; Rng.float rng makespan ]
  in
  for round = 1 to 80 do
    let n = 2 + Rng.int rng 7 in
    let m = n + Rng.int rng 4 in
    let circuit = kernel_circuit rng n in
    let stage = Timing.compile circuit in
    let weights =
      kernel_weights rng m ~absent:(if round mod 2 = 0 then 0.3 else 0.0)
    in
    let reference = closures weights in
    let placement = Array.sub (Rng.permutation rng m) 0 n in
    let shared = Array.init n (fun _ -> Rng.int rng m) in
    let physical_start = Array.init m (fun _ -> Rng.float rng 50.0) in
    let logical_start = Array.init n (fun _ -> Rng.float rng 50.0) in
    let swaps =
      Array.of_list
        (List.concat
           (List.init (1 + Rng.int rng 20) (fun _ ->
                let u = Rng.int rng m in
                let v = (u + 1 + Rng.int rng (m - 1)) mod m in
                List.init (1 + Rng.int rng 4) (fun _ -> Qcp_circuit.Swap_word.make u v ~level:0))))
    in
    let swap_circuit =
      Circuit.make ~qubits:m
        (Array.to_list
           (Array.map
              (fun w -> Gate.swap (Qcp_circuit.Swap_word.u w) (Qcp_circuit.Swap_word.v w))
              swaps))
    in
    List.iter
      (fun model ->
        List.iter
          (fun reuse_cap ->
            (* finish_times over the logical register, injective and
               non-injective placements. *)
            List.iter
              (fun place ->
                let expected =
                  Closures.finish_times ~model ?reuse_cap ~start:logical_start
                    ~weights:reference ~place:(fun q -> place.(q)) circuit
                in
                let got =
                  Timing.finish_times ~model ?reuse_cap ~start:logical_start
                    ~weights ~place:(fun q -> place.(q)) circuit
                in
                if bits got <> bits expected then
                  Alcotest.failf "round %d: finish_times differs" round;
                if Array.exists (fun t -> t = infinity) got then incr absent;
                incr compared)
              [ placement; shared ];
            (* The compiled stage from physical clocks, at every cutoff. *)
            let full =
              snd
                (Closures.stage_advance ~model ?reuse_cap ~limit:infinity
                   ~weights:reference ~place:(fun q -> placement.(q))
                   ~start:physical_start circuit)
            in
            List.iter
              (fun cutoff ->
                let expected =
                  Closures.stage_advance ~model ?reuse_cap ~limit:cutoff
                    ~weights:reference ~place:(fun q -> placement.(q))
                    ~start:physical_start circuit
                in
                Timing.stage_start scratch physical_start;
                check_stage ~round ~label:"stage" ~expected
                  (Timing.stage_advance ~model ~reuse_cap ~cutoff ~weights
                     ~place:placement scratch stage))
              (cutoffs (Array.fold_left Float.max 0.0 full));
            (* The packed-SWAP loop, at every cutoff. *)
            let swap_reference ~limit =
              match model with
              | Timing.Asap ->
                Closures.stage_advance_swaps ?reuse_cap ~limit ~weights:reference
                  ~start:physical_start swaps
              | Timing.Sequential ->
                Closures.stage_advance ~model ?reuse_cap ~limit
                  ~weights:reference ~place:Fun.id ~start:physical_start
                  swap_circuit
            in
            List.iter
              (fun cutoff ->
                let expected = swap_reference ~limit:cutoff in
                Timing.stage_start scratch physical_start;
                check_stage ~round ~label:"swaps" ~expected
                  (Timing.stage_advance_swaps ~model ~reuse_cap ~cutoff ~weights
                     scratch swaps))
              (cutoffs
                 (Array.fold_left Float.max 0.0 (snd (swap_reference ~limit:infinity)))))
          caps)
      [ Timing.Asap; Timing.Sequential ]
  done;
  Alcotest.(check bool) "compared" true (!compared > 5000);
  Alcotest.(check bool) "some cutoffs refute" true (!refuted > 1000);
  Alcotest.(check bool) "absent couplings reached" true (!absent > 100)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let words_allocated f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* [finish_times] allocates its clock arrays and the placement it reads
   [place] into, and nothing per gate: it compiles the circuit a chunk at
   a time into a per-domain buffer, warm after the first call. *)
let test_finish_times_allocation () =
  let weights =
    Array.init 16 (fun u ->
        Array.init 16 (fun v -> if u = v then 1.0 else if u < v then 2.0 else 2.5))
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
      (* Five arrays of n + 1 words, plus a closure. *)
      let ceiling = float_of_int ((3 * (n + 1)) + 64) in
      if w_small > ceiling then
        Alcotest.failf "finish_times allocates %.0f words (ceiling %.0f)" w_small
          ceiling)
    [ None; Some 3.0 ]

(* A warm compiled stage and a SWAP sequence time without allocating,
   whatever their length, angle gates included: durations are compiled
   once, delays read from the matrix, and the run state is never
   cleared.  (Closure weights and a per-gate [Gate.duration] box a float
   per read: 2 words per angle gate.) *)
let test_compiled_allocation () =
  let rng = Rng.create 5 in
  let n = 8 in
  let weights = random_weights rng n in
  let mixed count =
    Timing.compile
      (Circuit.make ~qubits:n
         (List.init count (fun i ->
              let q = i mod n in
              if i mod 2 = 0 then Gate.zz q ((q + 1) mod n) 45.0
              else Gate.rx q 30.0)))
  in
  let swaps count =
    Array.init count (fun i ->
        Qcp_circuit.Swap_word.make (i mod n) ((i + 1) mod n) ~level:0)
  in
  let place = Array.init n (fun q -> (q * 3) mod n) in
  let start = Array.init n float_of_int in
  let scratch = Timing.make_scratch () in
  List.iter
    (fun reuse_cap ->
      List.iter
        (fun count ->
          let stage = mixed count and sequence = swaps count in
          let run () =
            Timing.stage_start scratch start;
            ignore
              (Timing.stage_advance ~model:Timing.Asap ~reuse_cap ~cutoff:infinity
                 ~weights ~place scratch stage
                : bool);
            ignore
              (Timing.stage_advance_swaps ~model:Timing.Asap ~reuse_cap
                 ~cutoff:infinity ~weights scratch sequence
                : bool)
          in
          run ();
          let words = words_allocated run in
          if words <> 0.0 then
            Alcotest.failf "%d gates and %d swaps allocate %.0f words" count count
              words)
        [ 1000; 2000 ])
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
  let weights = [| [| 1.0; infinity |]; [| infinity; 1.0 |] |] in
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
    Alcotest.test_case "compiled kernel = closure loops" `Quick
      test_kernel_matches_closures;
    Alcotest.test_case "finish_times allocation" `Quick test_finish_times_allocation;
    Alcotest.test_case "compiled sweeps allocate nothing" `Quick
      test_compiled_allocation;
    Alcotest.test_case "capped repeat on absent coupling" `Quick
      test_absent_coupling_repeat;
  ]
