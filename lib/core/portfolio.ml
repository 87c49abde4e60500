module Circuit = Qcp_circuit.Circuit
module Environment = Qcp_env.Environment
module Telemetry = Qcp_obs.Metrics
module Clock = Qcp_util.Clock
module Task_pool = Qcp_util.Task_pool

type status = Completed of float | Infeasible of string

type entry = { strategy : string; status : status; wall_seconds : float }

type report = {
  program : Placer.program;
  winner : string;
  runtime : float;
  lower_bound : float;
  gap : float;
  entries : entry list;
}

(* A classic-pipeline entry: [tweak] fixes the pick flavor; the rest of the
   caller's options pass through untouched. *)
let classic tweak ~deadline options env circuit =
  match Placer.place ~deadline (tweak options) env circuit with
  | Placer.Placed program -> Ok program
  | Placer.Unplaceable msg -> Error msg

(* The scale-wall pipeline: windowed stage formation, coarsen-place-refine
   and sparse candidate roots.  Caller-set knobs win (a window above the
   default 1, a root cap). *)
let scale_options o =
  {
    o with
    Options.lookahead = false;
    balance_boundaries = false;
    window = (if o.Options.window = 1 then 64 else o.Options.window);
    coarsen = true;
    root_cap = (match o.Options.root_cap with None -> Some 32 | c -> c);
  }

(* Fixed annealing budget: modest restarts because the portfolio already
   diversifies across entries. *)
let annealer_restarts = 2
let annealer_iterations = 10_000

(* Whole-circuit simulated annealing wrapped as one computation stage over
   the full delay matrix: the paper's "optimal placement when placed
   without insertion of SWAPs" column.  [adjacency] keeps the
   fast-interaction graph for reporting, but the placement may use slow
   couplings; the replay charges them at their true cost.  Its budget is
   a fixed iteration count, so it reads the deadline once, before it
   starts. *)
let annealer ~deadline options env circuit =
  if Clock.expired deadline then Error Placer.msg_deadline
  else if Circuit.qubits circuit > Environment.size env then
    Error
      (Printf.sprintf "circuit needs %d qubits but the environment has %d"
         (Circuit.qubits circuit) (Environment.size env))
  else begin
    let placement, _ =
      Annealer.solve_restarts ~restarts:annealer_restarts
        ~jobs:options.Options.jobs ~iterations:annealer_iterations
        ~model:options.Options.model ?reuse_cap:options.Options.reuse_cap env
        circuit
    in
    let adjacency =
      match
        Environment.connected_adjacency env ~threshold:options.Options.threshold
      with
      | Some g -> g
      | None -> Environment.adjacency env ~threshold:infinity
    in
    Ok
      {
        Placer.env;
        source = circuit;
        options;
        adjacency;
        stages = [ Placer.Compute { placement; circuit } ];
        spilled = None;
        stats =
          {
            Placer.oracle_calls = 0;
            enumerations = 0;
            candidates_scored = 0;
            candidates_pruned = 0;
            lower_bound_skips = 0;
            timing_early_exits = 0;
            networks_routed = 0;
            route_cache_hits = 0;
            route_cache_misses = 0;
            scoring_seconds = 0.0;
          };
        metrics = Telemetry.snapshot (Telemetry.create ());
      }
  end

(* The entries in canonical order, which is also the reduce's tie-break
   priority. *)
let entries_in_order =
  [
    ( "greedy",
      classic (fun o ->
          { o with Options.lookahead = false; balance_boundaries = false }) );
    ( "lookahead",
      classic (fun o ->
          { o with Options.lookahead = true; balance_boundaries = false }) );
    ( "boundary",
      classic (fun o ->
          { o with Options.lookahead = true; balance_boundaries = true }) );
    ("annealer", annealer);
    ("scale", classic scale_options);
  ]

let run ?(deadline = infinity) options env circuit =
  Qcp_obs.Trace.with_span ~cat:"portfolio" "portfolio/race" @@ fun () ->
  let jobs = options.Options.jobs in
  let arr = Array.of_list entries_in_order in
  let total = Array.length arr in
  let results = Array.make total (Error "") in
  let walls = Array.make total 0.0 in
  Task_pool.parallel_for (Task_pool.get ())
    ~jobs:(Int.min jobs total)
    ~body:(fun ~worker:_ i ->
      let name, solve = arr.(i) in
      let t0 = Clock.now () in
      results.(i) <-
        Qcp_obs.Trace.with_span ~cat:"portfolio" ("portfolio/" ^ name)
          (fun () ->
            match solve ~deadline options env circuit with
            | Error msg -> Error msg
            | Ok program ->
              (* A placement over an absent coupling replays to [inf] or
                 NaN; neither is an achieved runtime. *)
              let runtime = Placer.runtime program in
              if Float.is_finite runtime then Ok (program, runtime)
              else Error "replayed runtime is not finite");
      walls.(i) <- Clock.now () -. t0)
    total;
  (* Earliest strict minimum in canonical order: every entry runs on its
     own and is deterministic, so the winner is the same at any [jobs]. *)
  let best = ref None in
  Array.iteri
    (fun i result ->
      match (result, !best) with
      | Ok (_, runtime), Some (_, _, best_runtime) when runtime >= best_runtime
        ->
        ()
      | Ok (program, runtime), _ -> best := Some (i, program, runtime)
      | Error _, _ -> ())
    results;
  let entries =
    List.init total (fun i ->
        {
          strategy = fst arr.(i);
          status =
            (match results.(i) with
            | Ok (_, runtime) -> Completed runtime
            | Error msg -> Infeasible msg);
          wall_seconds = walls.(i);
        })
  in
  (* A deadline abort anywhere aborts the reduce: a winner picked from
     the entries that beat the clock would depend on machine load. *)
  let aborted = function
    | Error msg -> msg = Placer.msg_deadline
    | Ok _ -> false
  in
  match !best with
  | _ when Array.exists aborted results -> Error Placer.msg_deadline
  | None ->
    (* Every entry failed: report the first reason in canonical order. *)
    let detail =
      Array.find_map (function Error msg -> Some msg | Ok _ -> None) results
    in
    Error
      (Printf.sprintf "portfolio: no strategy completed (%s)"
         (Option.value detail ~default:""))
  | Some (i, program, runtime) ->
    let winner = fst arr.(i) in
    if Telemetry.enabled () then begin
      Telemetry.incr (Telemetry.counter Telemetry.global "portfolio.races");
      Telemetry.incr
        (Telemetry.counter Telemetry.global
           ("portfolio.strategy_wins." ^ winner))
    end;
    let lower_bound =
      Baselines.lower_bound ?reuse_cap:options.Options.reuse_cap env circuit
    in
    let gap = if lower_bound > 0.0 then runtime /. lower_bound else 1.0 in
    Ok { program; winner; runtime; lower_bound; gap; entries }

let place ?deadline ?on_report options env circuit =
  if not options.Options.portfolio then
    Placer.place ?deadline options env circuit
  else
    match run ?deadline options env circuit with
    | Ok report ->
      Option.iter (fun f -> f report) on_report;
      Placer.Placed report.program
    | Error msg -> Placer.Unplaceable msg

(* Jobs run as pool tasks, so their internal parallel layers (scoring
   sweeps, enumeration, a portfolio's entries) serialize via the pool's
   nested-use guard; each job is exactly the sequential engine.  Cross-run
   state is thread-safe: jobs with equal environment and threshold resolve
   to the same physical adjacency graph
   ({!Qcp_env.Environment.connected_adjacency}, mutex-protected) and
   therefore to the same {!Score_cache} route table per router
   (mutex-protected entries, internally locked memo). *)
let place_batch ?(jobs = 0) ?(deadline_of = fun _ -> infinity) specs =
  let arr = Array.of_list specs in
  let total = Array.length arr in
  let place_one i =
    let options, env, circuit = arr.(i) in
    place ~deadline:(deadline_of i) options env circuit
  in
  if jobs <= 1 || total <= 1 then List.init total place_one
  else begin
    let out = Array.make total None in
    Task_pool.parallel_for (Task_pool.get ()) ~jobs
      ~body:(fun ~worker:_ i -> out.(i) <- Some (place_one i))
      total;
    Array.to_list
      (Array.map (function Some o -> o | None -> assert false) out)
  end

let pp_status ppf = function
  | Completed runtime -> Format.fprintf ppf "completed (runtime %.1f)" runtime
  | Infeasible msg -> Format.fprintf ppf "infeasible (%s)" msg

let pp_report ppf report =
  Format.fprintf ppf "winner: %s  runtime: %.1f  lower bound: %.1f  gap: %.3fx"
    report.winner report.runtime report.lower_bound report.gap;
  List.iter
    (fun e ->
      Format.fprintf ppf "@\n  %-10s %-32s %7.3fs" e.strategy
        (Format.asprintf "%a" pp_status e.status)
        e.wall_seconds)
    report.entries
