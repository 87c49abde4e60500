type weights = {
  single : int -> float;
  coupled : int -> int -> float;
}

type model = Asap | Sequential

let identity_place q = q

let capped reuse_cap t =
  match reuse_cap with None -> t | Some cap -> Float.min cap t

(* ------------------------------------------------------------------ *)
(* The recurrence, once: one two-qubit step, one ASAP gate loop, one
   packed-SWAP loop and one sequential fold.  Every entry point below runs
   these over clock arrays indexed by [register] slots: physical vertices
   for the placer's stage timing, logical qubits (with the placement
   folded into the weights) for {!finish_times}. *)

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

(* The two-qubit step: a gate of duration [t] on slots [pa], [pb] updates
   the interaction-run state (the [reuse_cap] accounting) and returns its
   finish clock, which the caller stores into both clocks.  A gate whose
   effective duration is 0 (a capped repeat) adds nothing: multiplying
   the pair's delay by 0 would turn an absent coupling ([infinity]) into
   NaN.  Inlined into both loops below. *)
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

(* The ASAP gate loop.  [time] must be pre-loaded with the start clocks,
   [pair_code] with -1 and [run_acc] with 0; qubit [q] runs on slot
   [place q].  Returns [false] the moment a finish strictly exceeds
   [limit], before storing it (the clocks are then partially advanced).
   Sound as an early refutation because the recurrence is monotone -- a
   gate only ever raises the clocks it touches -- so the final makespan
   would exceed [limit] too.  No clock exceeds an infinite limit, so the
   same loop is the unbounded sweep. *)
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

(* {!asap_gates} over SWAP gates on physical vertices (identity
   placement), read from an array of {!Swap_word}s. *)
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

(* The sequential fold: logic levels run back to back from [ready], each
   as long as its slowest gate.  A zero-duration two-qubit gate costs 0
   whatever its delay, as in {!pair_finish}. *)
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

let check_placed ~register circuit =
  if Circuit.qubits circuit > register then
    invalid_arg "Timing: circuit does not fit the physical register"

let stage_start scratch start =
  let register = Array.length start in
  scratch_ready scratch register;
  scratch.s_len <- register;
  Array.blit start 0 scratch.s_time 0 register

let stage_advance ?(model = Asap) ?reuse_cap ?(cutoff = infinity) ~weights
    ~place scratch circuit =
  let register = scratch.s_len in
  check_placed ~register circuit;
  match model with
  | Asap ->
    (* Fresh interaction-run state per stage, exactly like a separate
       [finish_times] call on the stage's circuit. *)
    Array.fill scratch.s_pair 0 register (-1);
    Array.fill scratch.s_acc 0 register 0.0;
    asap_gates ?reuse_cap ~limit:cutoff ~register ~time:scratch.s_time
      ~pair_code:scratch.s_pair ~run_acc:scratch.s_acc ~weights ~place circuit
  | Sequential ->
    let ready = ref 0.0 in
    for v = 0 to register - 1 do
      ready := Float.max !ready scratch.s_time.(v)
    done;
    let total = sequential_total ?reuse_cap ~ready:!ready ~weights ~place circuit in
    (* The sequential total is a running sum of nonnegative level widths, so
       comparing the final value is equivalent to aborting mid-fold. *)
    if total > cutoff then false
    else begin
      Array.fill scratch.s_time 0 register total;
      true
    end

let stage_advance_swaps ?(model = Asap) ?reuse_cap ?(cutoff = infinity)
    ~weights scratch swaps =
  let register = scratch.s_len in
  match model with
  | Asap ->
    Array.fill scratch.s_pair 0 register (-1);
    Array.fill scratch.s_acc 0 register 0.0;
    asap_swaps ?reuse_cap ~limit:cutoff ~register ~time:scratch.s_time
      ~pair_code:scratch.s_pair ~run_acc:scratch.s_acc ~weights swaps
  | Sequential ->
    let gates =
      Array.fold_right
        (fun w acc -> Gate.swap (Swap_word.u w) (Swap_word.v w) :: acc)
        swaps []
    in
    let circuit =
      try Circuit.make ~qubits:register gates
      with Invalid_argument _ ->
        invalid_arg "Timing: swap vertex outside the physical register"
    in
    stage_advance ~model ?reuse_cap ~cutoff ~weights ~place:identity_place
      scratch circuit

let stage_lift scratch v t =
  if t > scratch.s_time.(v) then scratch.s_time.(v) <- t

let stage_clocks scratch = Array.sub scratch.s_time 0 scratch.s_len

let stage_makespan scratch =
  let best = ref 0.0 in
  for v = 0 to scratch.s_len - 1 do
    best := Float.max !best scratch.s_time.(v)
  done;
  !best

(* Logical clocks: the loops run over the circuit's own register with the
   placement folded into the weights, so a non-injective [place] (two
   qubits on one vertex) still gives each qubit its own clock. *)
let finish_times ?(model = Asap) ?reuse_cap ?start ~weights ~place circuit =
  let n = Circuit.qubits circuit in
  let time =
    match start with
    | Some arr ->
      if Array.length arr <> n then
        invalid_arg "Timing.finish_times: start array length mismatch";
      Array.copy arr
    | None -> Array.make n 0.0
  in
  let weights =
    {
      single = (fun q -> weights.single (place q));
      coupled = (fun a b -> weights.coupled (place a) (place b));
    }
  in
  (match model with
  | Asap ->
    ignore
      (asap_gates ?reuse_cap ~limit:infinity ~register:n ~time
         ~pair_code:(Array.make n (-1)) ~run_acc:(Array.make n 0.0) ~weights
         ~place:identity_place circuit
        : bool)
  | Sequential ->
    let ready = Array.fold_left Float.max 0.0 time in
    Array.fill time 0 n
      (sequential_total ?reuse_cap ~ready ~weights ~place:identity_place circuit));
  time

let runtime ?model ?reuse_cap ?start ~weights ~place circuit =
  Array.fold_left Float.max 0.0
    (finish_times ?model ?reuse_cap ?start ~weights ~place circuit)
