type weights = float array array

type model = Asap | Sequential

let identity_place q = q

let capped reuse_cap t =
  match reuse_cap with None -> t | Some cap -> Float.min cap t

(* ------------------------------------------------------------------ *)
(* Compiled gate lists: qubit a, qubit b (-1 for a one-qubit gate) and
   the duration weight of each gate, in circuit order.  A compiled stage
   holds one for its whole circuit; {!finish_times} compiles into a
   per-domain buffer a chunk at a time. *)

type ops = {
  o_a : int array;
  o_b : int array;
  o_t : float array;
  mutable o_len : int;
}

let make_ops size =
  { o_a = Array.make size 0; o_b = Array.make size (-1);
    o_t = Array.make size 0.0; o_len = 0 }

(* Compile gates from [i] on until [ops] is full; returns the rest.  Top
   level, so a chunk builds no closure. *)
let rec fill_from ops i gates =
  match gates with
  | gate :: rest when i < Array.length ops.o_a ->
    (match gate with
    | Gate.G1 (_, q) ->
      ops.o_a.(i) <- q;
      ops.o_b.(i) <- -1
    | Gate.G2 (_, a, b) ->
      ops.o_a.(i) <- a;
      ops.o_b.(i) <- b);
    Gate.write_duration ops.o_t i gate;
    fill_from ops (i + 1) rest
  | _ ->
    ops.o_len <- i;
    gates

type stage = { circuit : Circuit.t; ops : ops }

let compile circuit =
  let ops = make_ops (Circuit.gate_count circuit) in
  ignore (fill_from ops 0 (Circuit.gates circuit) : Gate.t list);
  { circuit; ops }

(* ------------------------------------------------------------------ *)
(* The recurrence, once: one two-qubit step, one ASAP loop over compiled
   gates, one packed-SWAP loop and one sequential fold.  The ASAP loops
   keep clocks in [slot] order -- physical vertices for the placer's stage
   timing, logical qubits for {!finish_times} -- and read delays from the
   matrix rows and columns [place] names.  No closure, no option match and
   no polymorphic compare per gate: for the nonnegative, non-NaN clocks
   and weights the recurrence sees, [if a >= b then a else b] and
   [if a <= b then a else b] give the bits of [Float.max] and
   [Float.min]. *)

type scratch = {
  mutable s_time : float array;
  mutable s_pair : int array; (* pair code of the slot's current run *)
  mutable s_acc : float array;
  mutable s_len : int; (* register size of the clocks currently loaded *)
  mutable s_base : int;
      (* Pair codes below this belong to earlier sweeps: each sweep takes
         the next [register * register] codes, so the run state needs no
         clearing between sweeps. *)
}

let make_scratch () =
  { s_time = [||]; s_pair = [||]; s_acc = [||]; s_len = 0; s_base = 0 }

let scratch_ready scratch register =
  if Array.length scratch.s_time < register then begin
    scratch.s_time <- Array.make register 0.0;
    scratch.s_pair <- Array.make register (-1);
    scratch.s_acc <- Array.make register 0.0
  end

let next_base scratch register =
  let base = scratch.s_base in
  scratch.s_base <- base + (register * register);
  base

(* The two-qubit step's run accounting: a gate of duration [t] on slots
   [pa], [pb] whose pair code is [code] updates the interaction-run state
   (the [reuse_cap] accounting; [capped] false means no cap and [cap] is
   then [infinity]) and returns its effective duration.  A capped repeat's
   effective duration is 0, and the callers then add nothing: multiplying
   the pair's delay by 0 would turn an absent coupling ([infinity]) into
   NaN.  Inlined into both loops below; the annotations keep the pair
   codes' compare and store monomorphic. *)
let[@inline] run_effective capped cap (pair_code : int array) run_acc (code : int)
    pa pb t =
  if pair_code.(pa) = code && pair_code.(pb) = code then begin
    let acc = run_acc.(pa) in
    let total = acc +. t in
    run_acc.(pa) <- total;
    run_acc.(pb) <- total;
    if capped then
      (if total <= cap then total else cap) -. (if acc <= cap then acc else cap)
    else t
  end
  else begin
    (* A new run on this pair; runs on other pairs through pa or pb end. *)
    pair_code.(pa) <- code;
    pair_code.(pb) <- code;
    run_acc.(pa) <- t;
    run_acc.(pb) <- t;
    if t <= cap then t else cap
  end

(* The ASAP loop over [ops].  [time] holds the start clocks; pair codes
   below [base] are stale.  Returns [false] the moment a finish strictly
   exceeds [limit], before storing it (the clocks are then partially
   advanced).  Sound as an early refutation because the recurrence is
   monotone -- a gate only ever raises the clocks it touches -- so the
   final makespan would exceed [limit] too.  No clock exceeds an infinite
   limit, so the same loop is the unbounded sweep. *)
let asap_ops reuse_cap limit base register time pair_code run_acc delay slot
    place ops =
  let capped = match reuse_cap with Some _ -> true | None -> false in
  let cap = match reuse_cap with Some cap -> cap | None -> infinity in
  let qa = ops.o_a and qb = ops.o_b and dur = ops.o_t in
  let count = ops.o_len in
  let i = ref 0 in
  while !i < count do
    let a = qa.(!i) and b = qb.(!i) and t = dur.(!i) in
    if b < 0 then begin
      (* Local gates do not break an interaction run (see interface note). *)
      let p = slot.(a) and d = place.(a) in
      let finish = time.(p) +. (delay.(d).(d) *. t) in
      if finish > limit then i := max_int
      else begin
        time.(p) <- finish;
        incr i
      end
    end
    else begin
      let pa = slot.(a) and pb = slot.(b) in
      let code =
        if pa < pb then base + (pa * register) + pb
        else base + (pb * register) + pa
      in
      let effective = run_effective capped cap pair_code run_acc code pa pb t in
      let ta = time.(pa) and tb = time.(pb) in
      let ready = if ta >= tb then ta else tb in
      let finish =
        if effective = 0.0 then ready
        else ready +. (delay.(place.(a)).(place.(b)) *. effective)
      in
      if finish > limit then i := max_int
      else begin
        time.(pa) <- finish;
        time.(pb) <- finish;
        incr i
      end
    end
  done;
  !i = count

(* {!asap_ops} over SWAP gates on physical vertices (identity placement),
   read from an array of {!Swap_word}s. *)
let swap_duration = Gate.duration (Gate.swap 0 1)

let asap_swaps reuse_cap limit base register time pair_code run_acc delay swaps =
  let capped = match reuse_cap with Some _ -> true | None -> false in
  let cap = match reuse_cap with Some cap -> cap | None -> infinity in
  let t = swap_duration in
  let count = Array.length swaps in
  let i = ref 0 in
  while !i < count do
    let w = swaps.(!i) in
    let pa = Swap_word.u w and pb = Swap_word.v w in
    if pa >= register || pb >= register then
      invalid_arg "Timing: swap vertex outside the physical register";
    let code =
      if pa < pb then base + (pa * register) + pb else base + (pb * register) + pa
    in
    let effective = run_effective capped cap pair_code run_acc code pa pb t in
    let ta = time.(pa) and tb = time.(pb) in
    let ready = if ta >= tb then ta else tb in
    let finish =
      if effective = 0.0 then ready else ready +. (delay.(pa).(pb) *. effective)
    in
    if finish > limit then i := max_int
    else begin
      time.(pa) <- finish;
      time.(pb) <- finish;
      incr i
    end
  done;
  !i = count

(* The sequential fold: logic levels run back to back from [ready], each
   as long as its slowest gate.  A zero-duration two-qubit gate costs 0
   whatever its delay, as in {!run_effective}. *)
let sequential_total ?reuse_cap ~ready ~delay ~place circuit =
  let gate_cost gate =
    match gate with
    | Gate.G1 (_, q) ->
      let p = place q in
      delay.(p).(p) *. Gate.duration gate
    | Gate.G2 (_, a, b) ->
      let effective = capped reuse_cap (Gate.duration gate) in
      if effective = 0.0 then 0.0 else delay.(place a).(place b) *. effective
  in
  List.fold_left
    (fun acc level ->
      acc +. List.fold_left (fun m gate -> Float.max m (gate_cost gate)) 0.0 level)
    ready
    (Levelize.levels circuit)

let check_placed ~register circuit =
  if Circuit.qubits circuit > register then
    invalid_arg "Timing: circuit does not fit the physical register"

(* A loop, not [Array.blit]: registers are a few dozen clocks, where the
   C call costs more than the copy. *)
let stage_load scratch src ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length src - len then
    invalid_arg "Timing.stage_load";
  scratch_ready scratch len;
  scratch.s_len <- len;
  let time = scratch.s_time in
  for v = 0 to len - 1 do
    Array.unsafe_set time v (Array.unsafe_get src (pos + v))
  done

let stage_start scratch start =
  stage_load scratch start ~pos:0 ~len:(Array.length start)

let clocks scratch = scratch.s_time

(* A sequential stage is one fold from the latest loaded clock. *)
let sequential_advance ?reuse_cap ~cutoff ~weights ~place scratch circuit =
  let register = scratch.s_len in
  let ready = ref 0.0 in
  for v = 0 to register - 1 do
    ready := Float.max !ready scratch.s_time.(v)
  done;
  let total =
    sequential_total ?reuse_cap ~ready:!ready ~delay:weights ~place circuit
  in
  (* The sequential total is a running sum of nonnegative level widths, so
     comparing the final value is equivalent to aborting mid-fold. *)
  if total > cutoff then false
  else begin
    Array.fill scratch.s_time 0 register total;
    true
  end

let stage_advance ~model ~reuse_cap ~cutoff ~weights ~place scratch stage =
  let register = scratch.s_len in
  check_placed ~register stage.circuit;
  match model with
  | Asap ->
    (* Fresh interaction-run state per stage, exactly like a separate
       [finish_times] call on the stage's circuit. *)
    asap_ops reuse_cap cutoff (next_base scratch register) register
      scratch.s_time scratch.s_pair scratch.s_acc weights place place stage.ops
  | Sequential ->
    sequential_advance ?reuse_cap ~cutoff ~weights
      ~place:(fun q -> place.(q))
      scratch stage.circuit

let stage_advance_swaps ~model ~reuse_cap ~cutoff ~weights scratch swaps =
  let register = scratch.s_len in
  match model with
  | Asap ->
    asap_swaps reuse_cap cutoff (next_base scratch register) register
      scratch.s_time scratch.s_pair scratch.s_acc weights swaps
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
    sequential_advance ?reuse_cap ~cutoff ~weights ~place:identity_place
      scratch circuit

let stage_clocks scratch = Array.sub scratch.s_time 0 scratch.s_len

let stage_makespan scratch =
  let best = ref 0.0 in
  for v = 0 to scratch.s_len - 1 do
    best := Float.max !best scratch.s_time.(v)
  done;
  !best

(* Logical clocks: the gate loop runs over the circuit's own register
   ([slot] is the identity) with delays read through the placement, so a
   non-injective [place] (two qubits on one vertex) still gives each qubit
   its own clock.  The circuit is compiled a chunk at a time into this
   domain's buffer, so a call allocates nothing per gate. *)
let chunk = Domain.DLS.new_key (fun () -> make_ops 512)

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
  (match model with
  | Asap ->
    let slot = Array.init n Fun.id and placed = Array.init n place in
    let pair_code = Array.make n (-1) and run_acc = Array.make n 0.0 in
    let ops = Domain.DLS.get chunk in
    let rec go = function
      | [] -> ()
      | gates ->
        let rest = fill_from ops 0 gates in
        ignore
          (asap_ops reuse_cap infinity 0 n time pair_code run_acc weights slot
             placed ops
            : bool);
        go rest
    in
    go (Circuit.gates circuit)
  | Sequential ->
    let ready = Array.fold_left Float.max 0.0 time in
    Array.fill time 0 n
      (sequential_total ?reuse_cap ~ready ~delay:weights ~place circuit));
  time

let runtime ?model ?reuse_cap ?start ~weights ~place circuit =
  Array.fold_left Float.max 0.0
    (finish_times ?model ?reuse_cap ?start ~weights ~place circuit)
