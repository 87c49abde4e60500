module Circuit = Qcp_circuit.Circuit
module Environment = Qcp_env.Environment
module Telemetry = Qcp_obs.Metrics

let m_runs = Telemetry.counter Telemetry.global "annealer.runs"

let m_iterations = Telemetry.counter Telemetry.global "annealer.iterations"

let m_accepted = Telemetry.counter Telemetry.global "annealer.moves_accepted"

(* One annealing run over an explicit generator state; [solve] and every
   restart of [solve_restarts] share this loop, so restart results are the
   same function of their RNG stream no matter which domain runs them. *)
let anneal ~iterations ~start_temperature ~end_temperature ?model ?reuse_cap
    env circuit rng =
  Qcp_obs.Trace.with_span ~cat:"anneal" "annealer/run" @@ fun () ->
  let tele = Telemetry.enabled () in
  if tele then begin
    Telemetry.incr m_runs;
    Telemetry.add m_iterations iterations
  end;
  let accepted = ref 0 in
  let n = Circuit.qubits circuit in
  let m = Environment.size env in
  let cost placement = Baselines.evaluate ?model ?reuse_cap env circuit ~placement in
  let current = Baselines.random_placement rng env circuit in
  let occupant = Array.make m (-1) in
  Array.iteri (fun q v -> occupant.(v) <- q) current;
  let current_cost = ref (cost current) in
  let scale = Float.max 1.0 !current_cost in
  let best = ref (Array.copy current) in
  let best_cost = ref !current_cost in
  let cooling =
    if iterations <= 1 then 1.0
    else Float.exp (Float.log (end_temperature /. start_temperature) /. float_of_int iterations)
  in
  let temperature = ref (start_temperature *. scale) in
  for _ = 1 to iterations do
    (* Move one qubit to a random vertex, swapping occupants when needed. *)
    let q = Qcp_util.Rng.int rng n in
    let v = Qcp_util.Rng.int rng m in
    let old_v = current.(q) in
    if v <> old_v then begin
      let other = occupant.(v) in
      current.(q) <- v;
      occupant.(v) <- q;
      occupant.(old_v) <- other;
      if other >= 0 then current.(other) <- old_v;
      let candidate_cost = cost current in
      let delta = candidate_cost -. !current_cost in
      let accept =
        delta <= 0.0
        || Qcp_util.Rng.float rng 1.0 < Float.exp (-.delta /. !temperature)
      in
      if accept then begin
        if tele then incr accepted;
        current_cost := candidate_cost;
        if candidate_cost < !best_cost then begin
          best_cost := candidate_cost;
          best := Array.copy current
        end
      end
      else begin
        (* Revert. *)
        current.(q) <- old_v;
        occupant.(old_v) <- q;
        occupant.(v) <- other;
        if other >= 0 then current.(other) <- v
      end
    end;
    temperature := Float.max (end_temperature *. scale) (!temperature *. cooling)
  done;
  if tele then Telemetry.add m_accepted !accepted;
  (!best, !best_cost)

let check_size env circuit name =
  if Circuit.qubits circuit > Environment.size env then
    invalid_arg (name ^ ": circuit larger than environment")

let solve ?(iterations = 20_000) ?(seed = 1) ?(start_temperature = 0.2)
    ?(end_temperature = 0.001) ?model ?reuse_cap env circuit =
  check_size env circuit "Annealer.solve";
  anneal ~iterations ~start_temperature ~end_temperature ?model ?reuse_cap env
    circuit (Qcp_util.Rng.create seed)

let solve_restarts ?(restarts = 4) ?(jobs = 0) ?(iterations = 20_000)
    ?(seed = 1) ?(start_temperature = 0.2) ?(end_temperature = 0.001) ?model
    ?reuse_cap env circuit =
  if restarts <= 0 then invalid_arg "Annealer.solve_restarts: restarts <= 0";
  check_size env circuit "Annealer.solve_restarts";
  (* Derive every restart's generator from the master stream *on the
     caller, in restart order* — the streams (hence the results) are a pure
     function of [seed] and [restarts], independent of which domain runs
     which restart. *)
  let master = Qcp_util.Rng.create seed in
  let rngs = Array.make restarts master in
  for i = 0 to restarts - 1 do
    rngs.(i) <- Qcp_util.Rng.split master
  done;
  let slots = Array.make restarts None in
  Qcp_util.Task_pool.parallel_for
    (Qcp_util.Task_pool.get ())
    ~jobs:(Int.min jobs restarts)
    ~body:(fun ~worker:_ i ->
      slots.(i) <-
        Some
          (anneal ~iterations ~start_temperature ~end_temperature ?model
             ?reuse_cap env circuit rngs.(i)))
    restarts;
  (* Earliest strict minimum over restart costs — the same tie-break as the
     placer's candidate argmin, so the winner never depends on scheduling. *)
  let best = ref None in
  Array.iter
    (fun slot ->
      let ((_, cost) as result) = Option.get slot in
      match !best with
      | Some (_, best_cost) when cost >= best_cost -> ()
      | _ -> best := Some result)
    slots;
  Option.get !best
