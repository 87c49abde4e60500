module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Timing = Qcp_circuit.Timing
module Levelize = Qcp_circuit.Levelize
module Environment = Qcp_env.Environment

type event = {
  label : string;
  gate : Qcp_circuit.Gate.t;
  vertices : int list;
  start : float;
  finish : float;
  stage : int;
  is_swap : bool;
}

type t = { env : Environment.t; all_events : event list; total : float }

(* An independent copy of Timing's ASAP recurrence that reports every gate
   with its start and finish times; the reuse-cap bookkeeping matches the
   timing model so that the schedule's makespan equals Placer.runtime.  It
   shares no loop with Timing, so the schedule suite's "makespan = runtime"
   cases compare two implementations.  A capped repeat (effective duration
   0) adds nothing, as in Timing: a repeat over an absent coupling stays
   [infinity] instead of NaN. *)
let asap_stage ~env ~reuse_cap ~emit ~clock circuit =
  let current_pair = Array.make (Environment.size env) None in
  let run_acc = Array.make (Environment.size env) 0.0 in
  let capped t = match reuse_cap with None -> t | Some cap -> Float.min cap t in
  List.iter
    (fun gate ->
      match gate with
      | Gate.G1 (_, v) ->
        let duration = Environment.single_delay env v *. Gate.duration gate in
        let start = clock.(v) in
        clock.(v) <- start +. duration;
        emit gate [ v ] start clock.(v)
      | Gate.G2 (_, a, b) ->
        let pair = Some (Int.min a b, Int.max a b) in
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
            current_pair.(a) <- pair;
            current_pair.(b) <- pair;
            run_acc.(a) <- t;
            run_acc.(b) <- t;
            capped t
          end
        in
        let start = Float.max clock.(a) clock.(b) in
        clock.(a) <-
          (if effective = 0.0 then start
           else start +. (Environment.coupling_delay env a b *. effective));
        clock.(b) <- clock.(a);
        emit gate [ a; b ] start clock.(a))
    (Circuit.gates circuit)

let sequential_stage ~env ~reuse_cap ~emit ~clock circuit =
  let capped t = match reuse_cap with None -> t | Some cap -> Float.min cap t in
  let cost gate =
    match gate with
    | Gate.G1 (_, v) -> Environment.single_delay env v *. Gate.duration gate
    | Gate.G2 (_, a, b) ->
      let effective = capped (Gate.duration gate) in
      if effective = 0.0 then 0.0
      else Environment.coupling_delay env a b *. effective
  in
  let level_start = ref (Array.fold_left Float.max 0.0 clock) in
  List.iter
    (fun level ->
      let width =
        List.fold_left (fun acc gate -> Float.max acc (cost gate)) 0.0 level
      in
      List.iter
        (fun gate ->
          emit gate (Gate.qubits gate) !level_start (!level_start +. cost gate))
        level;
      level_start := !level_start +. width)
    (Levelize.levels circuit);
  Array.iteri (fun v _ -> clock.(v) <- !level_start) clock

(* Iterate every gate of the program in execution order with its scheduled
   start/finish times (including free zero-duration gates). *)
let iter_timed_gates program ~f =
  let env = program.Placer.env in
  let m = Environment.size env in
  let reuse_cap = program.Placer.options.Options.reuse_cap in
  let clock = Array.make m 0.0 in
  List.iteri
    (fun index stage ->
      let circuit, is_swap =
        match stage with
        | Placer.Compute { placement; circuit } ->
          (Circuit.map_qubits (fun q -> placement.(q)) ~qubits:m circuit, false)
        | Placer.Permute net ->
          (Qcp_route.Swap_network.to_circuit ~qubits:m net, true)
      in
      let emit gate vertices start finish =
        f ~stage:(index + 1) ~is_swap ~gate ~vertices ~start ~finish
      in
      match program.Placer.options.Options.model with
      | Timing.Asap -> asap_stage ~env ~reuse_cap ~emit ~clock circuit
      | Timing.Sequential -> sequential_stage ~env ~reuse_cap ~emit ~clock circuit)
    program.Placer.stages;
  Array.fold_left Float.max 0.0 clock

let of_program program =
  let events = ref [] in
  let total =
    iter_timed_gates program ~f:(fun ~stage ~is_swap ~gate ~vertices ~start ~finish ->
        if finish > start then
          events :=
            { label = Gate.name gate; gate; vertices; start; finish; stage; is_swap }
            :: !events)
  in
  let ordered =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> List.compare Int.compare a.vertices b.vertices
        | c -> c)
      (List.rev !events)
  in
  { env = program.Placer.env; all_events = ordered; total }

let events t = t.all_events

let makespan t = t.total

let event_count t = List.length t.all_events

let busy_time t v =
  List.fold_left
    (fun acc e -> if List.mem v e.vertices then acc +. (e.finish -. e.start) else acc)
    0.0 t.all_events

let is_consistent t =
  let ok = ref true in
  List.iter
    (fun e ->
      if e.start < -1e-9 || e.finish > t.total +. 1e-9 || e.finish < e.start then
        ok := false)
    t.all_events;
  (* Pairwise overlap check per nucleus. *)
  let m = Environment.size t.env in
  for v = 0 to m - 1 do
    let mine = List.filter (fun e -> List.mem v e.vertices) t.all_events in
    let rec scan = function
      | a :: (b :: _ as rest) ->
        if b.start < a.finish -. 1e-9 then ok := false;
        scan rest
      | [ _ ] | [] -> ()
    in
    scan (List.sort (fun a b -> Float.compare a.start b.start) mine)
  done;
  !ok

let render ?(width = 72) program =
  let t = of_program program in
  let env = t.env in
  let m = Environment.size env in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "pulse schedule: %d events, makespan %.4f sec\n"
       (event_count t) (t.total /. 10000.0));
  if t.total > 0.0 then begin
    let column time =
      Int.min (width - 1) (int_of_float (time /. t.total *. float_of_int width))
    in
    for v = 0 to m - 1 do
      let row = Bytes.make width '-' in
      List.iter
        (fun e ->
          if List.mem v e.vertices then begin
            let mark = if e.is_swap then 's' else '#' in
            for c = column e.start to Int.max (column e.start) (column (e.finish -. 1e-12)) do
              Bytes.set row c mark
            done
          end)
        t.all_events;
      Buffer.add_string buf
        (Printf.sprintf "%-4s |%s|\n" (Environment.nucleus env v)
           (Bytes.to_string row))
    done
  end;
  Buffer.contents buf
