type weights = {
  single : int -> float;
  coupled : int -> int -> float;
}

type model = Asap | Sequential

let identity_place q = q

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

(* ------------------------------------------------------------------ *)
(* Placed timing: a *logical* circuit evaluated against physical-indexed
   clocks through the placement callback, so the placer never has to build
   the remapped circuit ([Circuit.map_qubits]) just to time it.  The float
   recurrence is executed in exactly the same order as timing the remapped
   circuit, so results are bit-identical. *)

type scratch = {
  mutable s_time : float array;
  mutable s_pair : int array; (* current run's pair, encoded lo*reg+hi; -1 none *)
  mutable s_acc : float array;
  mutable s_len : int; (* register size of the clocks currently loaded *)
}

let make_scratch () = { s_time = [||]; s_pair = [||]; s_acc = [||]; s_len = 0 }

let scratch_ready scratch register =
  if Array.length scratch.s_time < register then begin
    scratch.s_time <- Array.make register 0.0;
    scratch.s_pair <- Array.make register (-1);
    scratch.s_acc <- Array.make register 0.0
  end

(* The two-qubit step of the physical-clock recurrence: a gate of
   duration [t] on vertices [pa], [pb] updates the interaction-run state
   (the [reuse_cap] accounting) and returns its finish clock, which the
   caller stores into both clocks.  Inlined into every loop below. *)
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

(* The ASAP recurrence over physical clocks.  [time] must be pre-loaded with
   the start clocks; [pair_code] with -1; [run_acc] with 0. *)
let asap_placed_into ?reuse_cap ~register ~time ~pair_code ~run_acc ~weights
    ~place circuit =
  let step gate =
    match gate with
    | Gate.G1 (_, q) ->
      let p = place q in
      time.(p) <- time.(p) +. (weights.single p *. Gate.duration gate)
    | Gate.G2 (_, a, b) ->
      let pa = place a and pb = place b in
      let finish =
        pair_finish ?reuse_cap ~register ~time ~pair_code ~run_acc ~weights pa
          pb (Gate.duration gate)
      in
      time.(pa) <- finish;
      time.(pb) <- finish
  in
  List.iter step (Circuit.gates circuit)

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

let sequential_placed_total ?reuse_cap ~ready ~weights ~place circuit =
  let gate_cost gate =
    match gate with
    | Gate.G1 (_, q) -> weights.single (place q) *. Gate.duration gate
    | Gate.G2 (_, a, b) ->
      weights.coupled (place a) (place b) *. capped reuse_cap (Gate.duration gate)
  in
  List.fold_left
    (fun acc level ->
      acc +. List.fold_left (fun m gate -> Float.max m (gate_cost gate)) 0.0 level)
    ready
    (Levelize.levels circuit)

let check_placed ~register circuit =
  if Circuit.qubits circuit > register then
    invalid_arg "Timing: circuit does not fit the physical register"

let finish_times_placed ?(model = Asap) ?reuse_cap ~start ~weights ~place
    circuit =
  let register = Array.length start in
  check_placed ~register circuit;
  match model with
  | Asap ->
    let time = Array.copy start in
    let pair_code = Array.make register (-1) in
    let run_acc = Array.make register 0.0 in
    asap_placed_into ?reuse_cap ~register ~time ~pair_code ~run_acc ~weights
      ~place circuit;
    time
  | Sequential ->
    let ready = Array.fold_left Float.max 0.0 start in
    Array.make register
      (sequential_placed_total ?reuse_cap ~ready ~weights ~place circuit)

let stage_start scratch start =
  let register = Array.length start in
  scratch_ready scratch register;
  scratch.s_len <- register;
  Array.blit start 0 scratch.s_time 0 register

let stage_advance ?(model = Asap) ?reuse_cap ?cutoff ~weights ~place scratch
    circuit =
  let register = scratch.s_len in
  check_placed ~register circuit;
  match model with
  | Asap -> (
    (* Fresh interaction-run state per stage, exactly like a separate
       [finish_times] call on the stage's circuit. *)
    Array.fill scratch.s_pair 0 register (-1);
    Array.fill scratch.s_acc 0 register 0.0;
    match cutoff with
    | None ->
      asap_placed_into ?reuse_cap ~register ~time:scratch.s_time
        ~pair_code:scratch.s_pair ~run_acc:scratch.s_acc ~weights ~place
        circuit;
      true
    | Some limit -> (
      try
        asap_placed_bounded ?reuse_cap ~limit ~register ~time:scratch.s_time
          ~pair_code:scratch.s_pair ~run_acc:scratch.s_acc ~weights ~place
          circuit;
        true
      with Cutoff_exceeded -> false))
  | Sequential ->
    let ready = ref 0.0 in
    for v = 0 to register - 1 do
      ready := Float.max !ready scratch.s_time.(v)
    done;
    let total =
      sequential_placed_total ?reuse_cap ~ready:!ready ~weights ~place circuit
    in
    (* The sequential total is a running sum of nonnegative level widths, so
       comparing the final value is equivalent to aborting mid-fold. *)
    (match cutoff with
    | Some limit when total > limit -> false
    | Some _ | None ->
      Array.fill scratch.s_time 0 register total;
      true)

(* {!asap_placed_bounded} over SWAP gates on physical vertices (identity
   placement).  One loop serves both verdicts -- no clock ever exceeds an
   infinite limit. *)
let swap_duration = Gate.duration (Gate.swap 0 1)

let asap_swaps ?reuse_cap ~limit ~register ~time ~pair_code ~run_acc ~weights
    swaps =
  let count = Array.length swaps / 2 in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < count do
    let pa = swaps.(2 * !i) and pb = swaps.((2 * !i) + 1) in
    if pa < 0 || pa >= register || pb < 0 || pb >= register then
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

let stage_advance_swaps ?(model = Asap) ?reuse_cap ?cutoff ~weights scratch
    swaps =
  let register = scratch.s_len in
  match model with
  | Asap ->
    Array.fill scratch.s_pair 0 register (-1);
    Array.fill scratch.s_acc 0 register 0.0;
    asap_swaps ?reuse_cap
      ~limit:(Option.value cutoff ~default:infinity)
      ~register ~time:scratch.s_time ~pair_code:scratch.s_pair
      ~run_acc:scratch.s_acc ~weights swaps
  | Sequential ->
    let gates =
      List.init (Array.length swaps / 2) (fun i ->
          Gate.swap swaps.(2 * i) swaps.((2 * i) + 1))
    in
    let circuit =
      try Circuit.make ~qubits:register gates
      with Invalid_argument _ ->
        invalid_arg "Timing: swap vertex outside the physical register"
    in
    stage_advance ~model ?reuse_cap ?cutoff ~weights
      ~place:identity_place scratch circuit

let stage_lift scratch v t =
  if t > scratch.s_time.(v) then scratch.s_time.(v) <- t

let stage_clocks scratch = Array.sub scratch.s_time 0 scratch.s_len

let stage_makespan scratch =
  let best = ref 0.0 in
  for v = 0 to scratch.s_len - 1 do
    best := Float.max !best scratch.s_time.(v)
  done;
  !best

let finish_times ?(model = Asap) ?reuse_cap ?start ~weights ~place circuit =
  let start =
    match start with
    | Some arr ->
      if Array.length arr <> Circuit.qubits circuit then
        invalid_arg "Timing.finish_times: start array length mismatch";
      arr
    | None -> Array.make (Circuit.qubits circuit) 0.0
  in
  match model with
  | Asap -> asap_times ?reuse_cap ~start ~weights ~place circuit
  | Sequential -> sequential_times ?reuse_cap ~start ~weights ~place circuit

let runtime ?model ?reuse_cap ?start ~weights ~place circuit =
  Array.fold_left Float.max 0.0
    (finish_times ?model ?reuse_cap ?start ~weights ~place circuit)

