module Circuit = Qcp_circuit.Circuit
module Timing = Qcp_circuit.Timing
module Environment = Qcp_env.Environment

let evaluate ?model ?reuse_cap env circuit ~placement =
  Timing.runtime ?model ?reuse_cap ~weights:(Environment.weights env)
    ~place:(fun q -> placement.(q))
    circuit

let exhaustive ?(limit = 200_000) ?model ?reuse_cap env circuit =
  let n = Circuit.qubits circuit in
  let m = Environment.size env in
  if n > m then None
  else begin
    let space = Environment.search_space env ~qubits:n in
    match Qcp_util.Bigdec.to_int_opt space with
    | Some size when size <= limit ->
      let placement = Array.make n (-1) in
      let taken = Array.make m false in
      let best = ref None in
      let rec assign q =
        if q = n then begin
          let cost = evaluate ?model ?reuse_cap env circuit ~placement in
          match !best with
          | Some (_, best_cost) when best_cost <= cost -> ()
          | Some _ | None -> best := Some (Array.copy placement, cost)
        end
        else
          for v = 0 to m - 1 do
            if not taken.(v) then begin
              taken.(v) <- true;
              placement.(q) <- v;
              assign (q + 1);
              placement.(q) <- -1;
              taken.(v) <- false
            end
          done
      in
      assign 0;
      !best
    | Some _ | None -> None
  end

let hill_climb ?model ?reuse_cap ?(passes = 10) env circuit ~init =
  let n = Circuit.qubits circuit in
  let m = Environment.size env in
  let current = Array.copy init in
  let occupant = Array.make m (-1) in
  Array.iteri (fun q v -> occupant.(v) <- q) current;
  let best_cost = ref (evaluate ?model ?reuse_cap env circuit ~placement:current) in
  let rec sweep remaining =
    if remaining > 0 then begin
      let improved = ref false in
      for q = 0 to n - 1 do
        for v = 0 to m - 1 do
          if v <> current.(q) then begin
            let old_v = current.(q) in
            let other = occupant.(v) in
            current.(q) <- v;
            occupant.(v) <- q;
            occupant.(old_v) <- other;
            if other >= 0 then current.(other) <- old_v;
            let cost = evaluate ?model ?reuse_cap env circuit ~placement:current in
            if cost < !best_cost -. 1e-12 then begin
              best_cost := cost;
              improved := true
            end
            else begin
              (* Revert. *)
              current.(q) <- old_v;
              occupant.(old_v) <- q;
              occupant.(v) <- other;
              if other >= 0 then current.(other) <- v
            end
          end
        done
      done;
      if !improved then sweep (remaining - 1)
    end
  in
  sweep passes;
  (current, !best_cost)

let lower_bound ?reuse_cap env circuit =
  let m = Environment.size env in
  let best_single = ref Float.infinity in
  let best_coupling = ref Float.infinity in
  for i = 0 to m - 1 do
    best_single := Float.min !best_single (Environment.single_delay env i);
    for j = i + 1 to m - 1 do
      best_coupling := Float.min !best_coupling (Environment.coupling_delay env i j)
    done
  done;
  if m < 2 then best_coupling := 0.0;
  let n = Circuit.qubits circuit in
  let weights =
    Array.init n (fun u ->
        Array.init n (fun v -> if u = v then !best_single else !best_coupling))
  in
  Timing.runtime ?reuse_cap ~weights ~place:Timing.identity_place circuit

let random_placement rng env circuit =
  let n = Circuit.qubits circuit in
  let m = Environment.size env in
  if n > m then invalid_arg "Baselines.random_placement: circuit too large";
  let perm = Qcp_util.Rng.permutation rng m in
  Array.sub perm 0 n

let whole_best ?model ?reuse_cap ?(restarts = 20) ?(seed = 1) env circuit =
  match exhaustive ?model ?reuse_cap env circuit with
  | Some best -> best
  | None ->
    let rng = Qcp_util.Rng.create seed in
    let tries =
      List.init restarts (fun _ ->
          let init = random_placement rng env circuit in
          hill_climb ?model ?reuse_cap env circuit ~init)
    in
    (match Qcp_util.Listx.min_by (fun (_, cost) -> cost) tries with
    | Some best -> best
    | None -> invalid_arg "Baselines.whole_best: restarts must be positive")
