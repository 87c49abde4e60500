module Statevec = Qcp_sim.Statevec
module Density = Qcp_sim.Density
module Environment = Qcp_env.Environment
module Circuit = Qcp_circuit.Circuit

let simulate ?(input = 0) program =
  let env = program.Placer.env in
  let m = Environment.size env in
  if m > 8 then invalid_arg "Noisy.simulate: environment too large to simulate";
  let initial =
    match Placer.initial_placement program with
    | Some placement -> Verify.embed_input ~m ~placement ~input
    | None -> Statevec.basis ~n:m 0
  in
  let rho = ref (Density.of_statevec initial) in
  let dephased_until = Array.make m 0.0 in
  let catch_up v upto =
    if upto > dephased_until.(v) then begin
      rho :=
        Density.dephase_for ~qubit:v
          ~time:(upto -. dephased_until.(v))
          ~t2:(Environment.t2 env v) !rho;
      dephased_until.(v) <- upto
    end
  in
  let makespan =
    Schedule.iter_timed_gates program
      ~f:(fun ~stage:_ ~is_swap:_ ~gate ~vertices ~start:_ ~finish ->
        List.iter (fun v -> catch_up v finish) vertices;
        rho := Density.apply_gate gate !rho)
  in
  for v = 0 to m - 1 do
    catch_up v makespan
  done;
  !rho

let ideal_output ~program ~input =
  let source = program.Placer.source in
  let m = Environment.size program.Placer.env in
  match (Placer.initial_placement program, Placer.final_placement program) with
  | None, _ | _, None ->
    (* Empty program: the untouched embedded input. *)
    Statevec.basis ~n:m input
  | Some _, Some final ->
    let logical_out =
      Statevec.run source (Statevec.basis ~n:(Circuit.qubits source) input)
    in
    Statevec.of_amplitudes
      (Verify.expected_physical ~m ~final ~logical_state:logical_out)

let empirical_fidelity ?(input = 0) program =
  let rho = simulate ~input program in
  Density.fidelity_to (ideal_output ~program ~input) rho
