module Telemetry = Qcp_obs.Metrics
module Clock = Qcp_util.Clock
module Task_pool = Qcp_util.Task_pool

type status =
  | Completed of float
  | Pruned
  | Expired
  | Infeasible of string

type entry = {
  strategy : string;
  status : status;
  wall_seconds : float;
  peer_prunes : int;
}

type report = {
  program : Placer.program;
  winner : string;
  runtime : float;
  lower_bound : float;
  gap : float;
  entries : entry list;
}

let status_of_result = function
  | Strategy.Complete (_, runtime) -> Completed runtime
  | Strategy.Pruned -> Pruned
  | Strategy.Expired -> Expired
  | Strategy.Infeasible msg -> Infeasible msg

let run ?jobs ?(share = true) options env circuit =
  match Strategy.resolve options.Options.portfolio_strategies with
  | Error msg -> Error msg
  | Ok strategies ->
    Qcp_obs.Trace.with_span ~cat:"portfolio" "portfolio/race" @@ fun () ->
    let jobs = Option.value jobs ~default:options.Options.jobs in
    let deadline =
      match options.Options.deadline with
      | None -> infinity
      | Some budget -> Clock.deadline_after budget
    in
    let shared = Incumbent.make infinity in
    let arr = Array.of_list strategies in
    let total = Array.length arr in
    let verdicts = Array.make total None in
    let walls = Array.make total 0.0 in
    Task_pool.parallel_for (Task_pool.get ())
      ~jobs:(Int.min jobs total)
      ~body:(fun ~worker:_ i ->
        let s = arr.(i) in
        (* Private cell under [~share:false]: the strategy still publishes
           and prunes, but only against itself — the ablation isolates
           exactly the cross-strategy effect. *)
        let cell = if share then shared else Incumbent.make infinity in
        (* The anchor ignores the deadline so a race always produces a
           placement, even with a zero budget. *)
        let deadline = if i = 0 then infinity else deadline in
        let t0 = Clock.now () in
        let verdict =
          Qcp_obs.Trace.with_span ~cat:"portfolio"
            ("portfolio/" ^ s.Strategy.name) (fun () ->
              s.Strategy.solve ~deadline ~shared:cell options env circuit)
        in
        walls.(i) <- Clock.now () -. t0;
        verdicts.(i) <- Some verdict)
      total;
    let verdicts = Array.map Option.get verdicts in
    (* Earliest strict minimum over completed strategies in canonical
       order — the only reduce under which the winner is schedule-free:
       completed programs are bit-identical to their solo runs, and a
       pruned strategy's final runtime provably exceeds some published
       (achieved) value, so it could neither win nor tie. *)
    let best = ref None in
    Array.iteri
      (fun i v ->
        match v.Strategy.result with
        | Strategy.Complete (program, runtime) -> (
          match !best with
          | Some (_, _, best_runtime) when runtime >= best_runtime -> ()
          | _ -> best := Some (i, program, runtime))
        | Strategy.Pruned | Strategy.Expired | Strategy.Infeasible _ -> ())
      verdicts;
    let entries =
      Array.to_list
        (Array.mapi
           (fun i v ->
             {
               strategy = arr.(i).Strategy.name;
               status = status_of_result v.Strategy.result;
               wall_seconds = walls.(i);
               peer_prunes = v.Strategy.peer_prunes;
             })
           verdicts)
    in
    (match !best with
    | None ->
      let detail =
        match
          List.find_map
            (function
              | { status = Infeasible msg; _ } -> Some msg | _ -> None)
            entries
        with
        | Some msg -> msg
        | None -> "every strategy aborted"
      in
      Error (Printf.sprintf "portfolio: no strategy completed (%s)" detail)
    | Some (i, program, runtime) ->
      let winner = arr.(i).Strategy.name in
      if Telemetry.enabled () then begin
        Telemetry.incr (Telemetry.counter Telemetry.global "portfolio.races");
        Telemetry.incr
          (Telemetry.counter Telemetry.global
             ("portfolio.strategy_wins." ^ winner));
        Telemetry.add
          (Telemetry.counter Telemetry.global
             "portfolio.candidates_pruned_by_peer")
          (List.fold_left (fun acc e -> acc + e.peer_prunes) 0 entries)
      end;
      let lower_bound = Baselines.lower_bound env circuit in
      let gap = if lower_bound > 0.0 then runtime /. lower_bound else 1.0 in
      Ok { program; winner; runtime; lower_bound; gap; entries })

let place ?jobs options env circuit =
  match run ?jobs options env circuit with
  | Ok report -> Placer.Placed report.program
  | Error msg -> Placer.Unplaceable msg

let place_batch ?(jobs = 0) specs =
  let arr = Array.of_list specs in
  let total = Array.length arr in
  if jobs <= 1 || total <= 1 then
    List.map (fun (options, env, circuit) -> place options env circuit) specs
  else begin
    let out = Array.make total None in
    Task_pool.parallel_for (Task_pool.get ()) ~jobs
      ~body:(fun ~worker:_ i ->
        let options, env, circuit = arr.(i) in
        out.(i) <- Some (place options env circuit))
      total;
    Array.to_list
      (Array.map (function Some o -> o | None -> assert false) out)
  end

let pp_status ppf = function
  | Completed runtime -> Format.fprintf ppf "completed (runtime %.1f)" runtime
  | Pruned -> Format.pp_print_string ppf "pruned by peer"
  | Expired -> Format.pp_print_string ppf "deadline expired"
  | Infeasible msg -> Format.fprintf ppf "infeasible (%s)" msg

let pp_report ppf report =
  Format.fprintf ppf "winner: %s  runtime: %.1f  lower bound: %.1f  gap: %.3fx"
    report.winner report.runtime report.lower_bound report.gap;
  List.iter
    (fun e ->
      Format.fprintf ppf "@\n  %-10s %-32s %7.3fs  peer prunes: %d" e.strategy
        (Format.asprintf "%a" pp_status e.status)
        e.wall_seconds e.peer_prunes)
    report.entries
