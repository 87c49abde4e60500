(* qcp: command-line quantum circuit placer.

   Subcommands:
     place    place a circuit onto a physical environment
     route    build a SWAP network realizing a permutation
     runtime  evaluate a circuit runtime under an explicit placement
     gen      print catalog circuits / generated environments
     report   regenerate the paper's tables and figures                 *)

open Cmdliner

module Environment = Qcp_env.Environment
module Molecules = Qcp_env.Molecules
module Catalog = Qcp_circuit.Catalog
module Circuit = Qcp_circuit.Circuit

(* ------------------------------------------------------------------ *)
(* Shared argument converters                                          *)
(* ------------------------------------------------------------------ *)

(* Names and generator forms resolve as in the serve protocol; only the
   CLI falls back to reading a file. *)
let load_circuit spec =
  match Qcp_serve.Protocol.named_circuit spec with
  | Some c -> Ok c
  | None ->
    if Sys.file_exists spec then
      if Filename.check_suffix spec ".qasm" then
        try Ok (Qcp_circuit.Qasm.parse_file spec) with
        | Qcp_circuit.Qasm.Parse_error (line, msg) ->
          Error (Printf.sprintf "%s:%d: %s" spec line msg)
      else
        try Ok (Qcp_circuit.Qc_format.parse_file spec) with
        | Qcp_circuit.Qc_format.Parse_error (line, msg) ->
          Error (Printf.sprintf "%s:%d: %s" spec line msg)
    else
      Error (Qcp_serve.Protocol.unknown_circuit spec ~or_else:"or a .qc/.qasm file")

let load_env spec =
  match Qcp_serve.Protocol.named_env spec with
  | Some resolved -> resolved
  | None ->
    if Sys.file_exists spec then
      try Ok (Qcp_env.Env_format.parse_file spec) with
      | Qcp_env.Env_format.Parse_error (line, msg) ->
        Error (Printf.sprintf "%s:%d: %s" spec line msg)
    else
      Error (Qcp_serve.Protocol.unknown_env spec ~or_else:"or give a .env file path")

let circuit_conv =
  let parse spec = Result.map_error (fun m -> `Msg m) (load_circuit spec) in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<circuit>")

let env_conv =
  let parse spec = Result.map_error (fun m -> `Msg m) (load_env spec) in
  Arg.conv (parse, fun ppf env -> Format.pp_print_string ppf (Environment.name env))

let circuit_arg =
  Arg.(
    required
    & opt (some circuit_conv) None
    & info [ "c"; "circuit" ] ~docv:"CIRCUIT"
        ~doc:"Catalog name (e.g. qft6, phaseest) or a .qc file path.")

let env_arg =
  Arg.(
    required
    & opt (some env_conv) None
    & info [ "e"; "env" ] ~docv:"ENV"
        ~doc:
          "Molecule name (e.g. trans-crotonic), a generator (chain:16, \
           grid:3:4) or a .env file path.")

let threshold_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "t"; "threshold" ] ~docv:"DELAY"
        ~doc:
          "Fast-interaction Threshold in 1/10000 s units; defaults to the \
           smallest value connecting the environment.")

(* Integer options are range-checked here, as the serve protocol checks
   them: [-k 0] is an input error, not an instance without monomorphisms. *)
let int_at_least low =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= low -> Ok v
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer of at least %d" low))
  in
  Arg.conv (parse, Format.pp_print_int)

let portfolio_flag =
  Arg.(
    value & flag
    & info [ "portfolio" ]
        ~doc:
          "Run five placement strategies (greedy, lookahead, boundary, \
           annealer, scale) and keep the earliest one achieving the lowest \
           replayed runtime.")

let options_term =
  let make threshold no_lookahead fine_tune no_override router no_cap
      sequential limit commute balance window coarsen root_cap jobs portfolio
      env =
    let threshold =
      match threshold with
      | Some th -> th
      | None -> Environment.min_threshold_connected env
    in
    {
      (Qcp.Options.default ~threshold) with
      Qcp.Options.lookahead = not no_lookahead;
      fine_tune_passes = fine_tune;
      leaf_override = not no_override;
      router;
      reuse_cap = (if no_cap then None else Some 3.0);
      model =
        (if sequential then Qcp_circuit.Timing.Sequential
         else Qcp_circuit.Timing.Asap);
      monomorphism_limit = limit;
      commute_prepass = commute;
      balance_boundaries = balance;
      window;
      coarsen;
      root_cap;
      jobs = Option.value jobs ~default:(Qcp_util.Task_pool.env_jobs ());
      portfolio;
    }
  in
  Term.(
    const make $ threshold_arg
    $ Arg.(value & flag & info [ "no-lookahead" ] ~doc:"Disable depth-2 lookahead.")
    $ Arg.(
        value & opt (int_at_least 0) 3
        & info [ "fine-tune" ] ~docv:"PASSES" ~doc:"Hill-climbing passes (0 disables).")
    $ Arg.(value & flag & info [ "no-leaf-override" ] ~doc:"Disable the leaf-target heuristic.")
    $ Arg.(
        value
        & opt
            (enum
               [ ("bisect", Qcp.Options.Bisect);
                 ("weighted", Qcp.Options.Bisect_weighted);
                 ("token", Qcp.Options.Token);
                 ("odd-even", Qcp.Options.Odd_even) ])
            Qcp.Options.Bisect
        & info [ "router" ] ~docv:"NAME"
            ~doc:"SWAP router: bisect (paper), weighted, token, odd-even.")
    $ Arg.(value & flag & info [ "no-reuse-cap" ] ~doc:"Disable the 3-uses interaction cap.")
    $ Arg.(value & flag & info [ "sequential" ] ~doc:"Sequential-levels timing model.")
    $ Arg.(
        value & opt (int_at_least 1) 100
        & info [ "k"; "monomorphisms" ] ~docv:"K" ~doc:"Monomorphism enumeration limit.")
    $ Arg.(
        value & flag
        & info [ "commute" ]
            ~doc:"Apply the commutation/identities pre-pass before placement.")
    $ Arg.(
        value & flag
        & info [ "balance" ]
            ~doc:"Refine subcircuit boundaries against swap-stage costs.")
    $ Arg.(
        value & opt (int_at_least 1) 1
        & info [ "window" ] ~docv:"GATES"
            ~doc:
              "Deferral window of subcircuit formation: a gate that would \
               break alignability is deferred instead of closing the \
               subcircuit, until $(docv) gates are deferred.  The default 1 \
               is the paper's greedy maximal-prefix split; larger windows \
               pack subcircuits fuller (scale mode for very deep \
               circuits).")
    $ Arg.(
        value & flag
        & info [ "coarsen" ]
            ~doc:
              "Hierarchical coarsen-place-refine on large environments: \
               restrict monomorphism enumeration to regions selected \
               through a heavy-edge-matching hierarchy and fine-tune \
               locally.")
    $ Arg.(
        value & opt (some (int_at_least 1)) None
        & info [ "root-cap" ] ~docv:"N"
            ~doc:
              "Cap the first-vertex candidate set of each monomorphism \
               enumeration (sparse candidate generation on dense \
               environments).")
    $ Arg.(
        value & opt (some int) None
        & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "QCP_JOBS")
            ~doc:
              "Run every parallel layer (candidate scoring, monomorphism \
               enumeration, portfolio entries) on this many domains of the \
               shared pool (0 or 1 = sequential).  Placements are identical \
               at any value.  Defaults to $(b,QCP_JOBS), else 0.")
    $ portfolio_flag)

(* ------------------------------------------------------------------ *)
(* place                                                               *)
(* ------------------------------------------------------------------ *)

let place_run env circuit options_of_env auto spill verbose trace_file
    metrics_flag metrics_json_file =
  let options = options_of_env env in
  (* Enable the gated hot-path instruments (pool, monomorphism, router,
     cache) before the run when any telemetry output was requested. *)
  if metrics_flag || metrics_json_file <> None then
    Qcp_obs.Metrics.set_enabled true;
  if trace_file <> None then Qcp_obs.Trace.start ();
  let t0 = Unix.gettimeofday () in
  let race = ref None in
  let outcome =
    match spill with
    | Some sink -> Qcp.Placer.place ~spill:sink options env circuit
    | None when auto ->
      Qcp.Tuner.auto_place
        ~options:(fun ~threshold -> { options with Qcp.Options.threshold })
        env circuit
    | None ->
      Qcp.Portfolio.place
        ~on_report:(fun report -> race := Some report)
        options env circuit
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match trace_file with
  | None -> ()
  | Some path ->
    Qcp_obs.Trace.stop ();
    let events = Qcp_obs.Trace.events () in
    Qcp_obs.Export.write_trace_file path events;
    Printf.printf
      "trace      : %d spans -> %s (open in chrome://tracing or \
       ui.perfetto.dev)\n"
      (List.length events) path;
    (let dropped = Qcp_obs.Trace.dropped () in
     if dropped > 0 then
       Printf.printf "trace      : %d spans dropped (ring overflow)\n" dropped);
    print_string (Qcp_obs.Export.flame_summary ~wall events));
  let metrics_snapshot () =
    Qcp_obs.Metrics.snapshot Qcp_obs.Metrics.global
  in
  if metrics_flag then
    Format.printf "%a" Qcp_obs.Export.pp_metrics (metrics_snapshot ());
  (match metrics_json_file with
  | None -> ()
  | Some path -> Qcp_obs.Export.write_metrics_file path (metrics_snapshot ()));
  match outcome with
  | Qcp.Placer.Unplaceable msg ->
    Printf.printf "N/A: %s\n" msg;
    1
  | Qcp.Placer.Placed p ->
    Printf.printf "circuit   : %d qubits, %d gates (%d two-qubit)\n"
      (Circuit.qubits circuit) (Circuit.gate_count circuit)
      (Circuit.two_qubit_count circuit);
    Printf.printf "environment: %s (%d nuclei), Threshold %g%s\n"
      (Environment.name env) (Environment.size env)
      p.Qcp.Placer.options.Qcp.Options.threshold
      (if auto then " (auto-tuned)" else "");
    Printf.printf "subcircuits: %d, swap stages: %d (%d levels total)\n"
      (Qcp.Placer.subcircuit_count p)
      (Qcp.Placer.swap_stage_count p)
      (Qcp.Placer.swap_depth_total p);
    Printf.printf "runtime    : %.4f sec (%.0f units of 1/10000 s)\n"
      (Qcp.Placer.runtime_seconds p) (Qcp.Placer.runtime p);
    (match p.Qcp.Placer.spilled with
    | Some s ->
      Printf.printf "spill      : stages streamed out of core (%d swaps total)\n"
        s.Qcp.Placer.sm_swap_count
    | None -> ());
    (match Qcp.Placer.initial_placement p with
    | Some placement ->
      Printf.printf "initial placement:";
      Array.iteri
        (fun q v ->
          Printf.printf " q%d->%s" q (Environment.nucleus env v))
        placement;
      print_newline ()
    | None -> ());
    let fidelity = Qcp.Fidelity.estimate p in
    if fidelity < 1.0 then Printf.printf "fidelity   : %.4f (exp(-sum dt/T2))\n" fidelity;
    let s = p.Qcp.Placer.stats in
    Printf.printf
      "scoring    : %d candidates, %d routing requests (%d cache hits, %d \
       routed), %.4f s\n"
      s.Qcp.Placer.candidates_scored s.Qcp.Placer.networks_routed
      s.Qcp.Placer.route_cache_hits s.Qcp.Placer.route_cache_misses
      s.Qcp.Placer.scoring_seconds;
    if s.Qcp.Placer.candidates_pruned > 0 then
      Printf.printf
        "pruning    : %d of %d evaluations cut short (%.0f%%): %d \
         lower-bound skips, %d timing early exits\n"
        s.Qcp.Placer.candidates_pruned s.Qcp.Placer.candidates_scored
        (100.0
        *. float_of_int s.Qcp.Placer.candidates_pruned
        /. float_of_int (max 1 s.Qcp.Placer.candidates_scored))
        s.Qcp.Placer.lower_bound_skips s.Qcp.Placer.timing_early_exits;
    Option.iter
      (Format.printf "portfolio  : %a@." Qcp.Portfolio.pp_report)
      !race;
    if verbose then Format.printf "%a" Qcp.Placer.pp p;
    0

let place_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every stage.")
  in
  let auto =
    Arg.(
      value & flag
      & info [ "auto-threshold" ]
          ~doc:"Sweep all meaningful thresholds and keep the fastest placement.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~env:(Cmd.Env.info "QCP_TRACE")
          ~doc:
            "Record phase/router/pool spans and write them as Chrome \
             trace-event JSON to $(docv) (open in chrome://tracing or \
             ui.perfetto.dev); also prints a self-time summary.  Placements \
             are identical with tracing on or off.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect the full telemetry registry (search counters, cache \
             hit rates, pool steals, refutation rules) and print it after \
             placing.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Like $(b,--metrics) but written to $(docv) as JSON.")
  in
  let spill =
    (* Only a single classic run spills: the portfolio and the threshold
       sweep replay every placement they compare.  The conflict is a
       usage error, raised before any file is opened. *)
    let sink spill portfolio auto =
      match spill with
      | Some _ when portfolio || auto ->
        `Error
          ( true,
            "--spill cannot be combined with --portfolio or \
             --auto-threshold" )
      | None -> `Ok None
      | Some "" -> `Ok (Some Qcp.Placer.Spill.null)
      | Some path -> (
        match Qcp.Placer.Spill.file path with
        | sink -> `Ok (Some sink)
        | exception Sys_error msg -> `Error (false, msg))
    in
    Term.(
      ret
        (const sink
        $ Arg.(
            value
            & opt ~vopt:(Some "") (some string) None
            & info [ "spill" ] ~docv:"FILE"
                ~doc:
                  "Stream per-stage placements out of the hot loop instead \
                   of materializing the stage list: peak heap becomes \
                   independent of gate count.  With no $(docv) the stages \
                   are summarized and dropped; with one, each stage is \
                   appended to $(docv) as one JSON line.  Placements are \
                   identical to the same run without spilling \
                   ($(b,--balance) is skipped).  Not with $(b,--portfolio) \
                   or $(b,--auto-threshold).")
        $ portfolio_flag $ auto))
  in
  let term =
    Term.(
      const place_run $ env_arg $ circuit_arg $ options_term $ auto $ spill
      $ verbose $ trace $ metrics $ metrics_json)
  in
  Cmd.v (Cmd.info "place" ~doc:"Place a circuit onto a physical environment.") term

(* ------------------------------------------------------------------ *)
(* route                                                               *)
(* ------------------------------------------------------------------ *)

let perm_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    try Ok (Array.of_list (List.map int_of_string parts))
    with Failure _ -> Error (`Msg "permutation must be comma-separated integers")
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<perm>")

let route_run env threshold perm token_router =
  let threshold =
    match threshold with
    | Some th -> th
    | None -> Environment.min_threshold_connected env
  in
  match Environment.connected_adjacency env ~threshold with
  | None ->
    Printf.printf "N/A: the Threshold disallows every interaction\n";
    1
  | Some adjacency ->
    if Array.length perm <> Environment.size env then begin
      Printf.printf "error: permutation must list all %d vertices\n"
        (Environment.size env);
      1
    end
    else if not (Qcp_route.Perm.is_valid perm) then begin
      Printf.printf
        "error: permutation must list each vertex 0..%d exactly once\n"
        (Environment.size env - 1);
      1
    end
    else begin
      let network =
        if token_router then Qcp_route.Token_router.route adjacency ~perm
        else Qcp_route.Bisect_router.route adjacency ~perm
      in
      Printf.printf "%d levels, %d swaps\n"
        (Qcp_route.Swap_network.depth network)
        (Qcp_route.Swap_network.swap_count network);
      List.iteri
        (fun i level ->
          Printf.printf "level %d:" (i + 1);
          List.iter
            (fun (u, v) ->
              Printf.printf " (%s,%s)" (Environment.nucleus env u)
                (Environment.nucleus env v))
            level;
          print_newline ())
        network;
      0
    end

let route_cmd =
  let perm_arg =
    Arg.(
      required
      & opt (some perm_conv) None
      & info [ "p"; "perm" ] ~docv:"P0,P1,..."
          ~doc:"Destination vertex of the token at each vertex.")
  in
  let token =
    Arg.(value & flag & info [ "token-router" ] ~doc:"Use the naive router.")
  in
  let term =
    Term.(const route_run $ env_arg $ threshold_arg $ perm_arg $ token)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Build a SWAP network realizing a permutation.")
    term

(* ------------------------------------------------------------------ *)
(* runtime                                                             *)
(* ------------------------------------------------------------------ *)

let runtime_run env circuit placement =
  let n = Circuit.qubits circuit in
  if Array.length placement <> n then begin
    Printf.printf "error: placement must list all %d qubits\n" n;
    1
  end
  else begin
    let cost = Qcp.Baselines.evaluate env circuit ~placement in
    Printf.printf "runtime: %.4f sec (%.0f units)\n" (cost /. 10000.0) cost;
    0
  end

let runtime_cmd =
  let placement_arg =
    Arg.(
      required
      & opt (some perm_conv) None
      & info [ "p"; "placement" ] ~docv:"V0,V1,..."
          ~doc:"Physical vertex of each logical qubit.")
  in
  let term = Term.(const runtime_run $ env_arg $ circuit_arg $ placement_arg) in
  Cmd.v
    (Cmd.info "runtime" ~doc:"Evaluate a circuit under an explicit placement.")
    term

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_run kind =
  match kind with
  | `Circuit spec -> (
    match load_circuit spec with
    | Ok c ->
      print_string (Qcp_circuit.Qc_format.print c);
      0
    | Error msg ->
      prerr_endline msg;
      1)
  | `Env spec -> (
    match load_env spec with
    | Ok env ->
      print_string (Qcp_env.Env_format.print env);
      0
    | Error msg ->
      prerr_endline msg;
      1)

let gen_cmd =
  let what =
    Arg.(
      required
      & pos 0 (some (enum [ ("circuit", `C); ("env", `E) ])) None
      & info [] ~docv:"circuit|env")
  in
  let spec = Arg.(required & pos 1 (some string) None & info [] ~docv:"NAME") in
  let term =
    Term.(
      const (fun what spec ->
          gen_run (match what with `C -> `Circuit spec | `E -> `Env spec))
      $ what $ spec)
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Print a catalog circuit (.qc) or environment (.env) to stdout.")
    term

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

(* Every target, with the generator it prints. *)
let report_targets =
  let module E = Qcp_report.Experiments in
  let plain f ~full:_ ~jobs:_ ~phases:_ ~portfolio:_ = f () in
  [
    ("table1", plain E.table1);
    ( "table2",
      fun ~full:_ ~jobs ~phases ~portfolio -> E.table2 ~jobs ~phases ~portfolio () );
    ( "table3",
      fun ~full:_ ~jobs ~phases ~portfolio -> E.table3 ~jobs ~phases ~portfolio () );
    ( "table4",
      fun ~full ~jobs ~phases ~portfolio -> E.table4 ~full ~jobs ~phases ~portfolio () );
    ( "tables234",
      fun ~full:_ ~jobs ~phases ~portfolio -> E.tables234 ~jobs ~phases ~portfolio () );
    ("figure1", plain E.figure1);
    ("figure2", plain E.figure2);
    ("figure3", plain E.figure3);
    ("figure4", plain E.figure4);
    ("npc", plain E.npc);
    ("ablation", plain E.ablation);
    ("fidelity", plain E.fidelity);
    ("arch", plain E.architectures);
    ("schedule", plain E.schedule_demo);
    ("all", plain E.all);
  ]

let report_run target full jobs phases portfolio =
  (* The placer's phase clocks only run when telemetry is armed. *)
  if phases then Qcp_obs.Metrics.set_enabled true;
  let jobs =
    match jobs with Some j -> j | None -> Qcp_util.Task_pool.env_jobs ()
  in
  print_string ((List.assoc target report_targets) ~full ~jobs ~phases ~portfolio);
  0

let report_cmd =
  (* An enum, so cmdliner rejects an unknown target (usage error on
     stderr, exit 124) and the help lists every target. *)
  let target =
    Arg.(
      value
      & pos 0 (enum (List.map (fun (t, _) -> (t, t)) report_targets)) "all"
      & info [] ~docv:"TARGET"
          ~doc:
            ("The report to print: " ^ Arg.doc_alts (List.map fst report_targets) ^ "."))
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Full Table-4 sweep (N up to 1024).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "QCP_JOBS")
          ~doc:
            "Regenerate table placements concurrently on this many domains \
             (tables 2-4).  The rendered tables are identical at any value.")
  in
  let phases =
    Arg.(
      value & flag
      & info [ "phases" ]
          ~doc:
            "Append a per-row pipeline phase breakdown (wall seconds in \
             split/enumerate/greedy/lookahead/fine-tune/route/balance) \
             after tables 2-4.")
  in
  let portfolio =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Place every table cell through the deterministic strategy \
             portfolio instead of a single classic pipeline (tables 2-4).")
  in
  let term =
    Term.(const report_run $ target $ full $ jobs $ phases $ portfolio)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's tables and figures.")
    term

(* ------------------------------------------------------------------ *)
(* tune                                                                *)
(* ------------------------------------------------------------------ *)

let tune_run env circuit jobs =
  let jobs =
    match jobs with Some j -> j | None -> Qcp_util.Task_pool.env_jobs ()
  in
  let results = Qcp.Tuner.sweep ~jobs env circuit in
  Printf.printf "%-14s %-16s %-12s %-12s\n" "threshold" "runtime" "subcircuits"
    "swap levels";
  List.iter
    (fun (threshold, outcome) ->
      match outcome with
      | Qcp.Placer.Unplaceable _ -> Printf.printf "%-14.6g N/A\n" threshold
      | Qcp.Placer.Placed p ->
        Printf.printf "%-14.6g %-16s %-12d %-12d\n" threshold
          (Printf.sprintf "%.4f sec" (Qcp.Placer.runtime_seconds p))
          (Qcp.Placer.subcircuit_count p)
          (Qcp.Placer.swap_depth_total p))
    results;
  match Qcp.Tuner.best results with
  | Qcp.Placer.Placed p ->
    Printf.printf "\nbest: threshold %g -> %.4f sec\n"
      p.Qcp.Placer.options.Qcp.Options.threshold
      (Qcp.Placer.runtime_seconds p);
    0
  | Qcp.Placer.Unplaceable msg ->
    Printf.printf "\nno threshold admits a placement: %s\n" msg;
    1

let tune_cmd =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "QCP_JOBS")
          ~doc:
            "Place the candidate thresholds concurrently on this many pool              domains.  The sweep and the selected best are identical at any              value.")
  in
  let term = Term.(const tune_run $ env_arg $ circuit_arg $ jobs) in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Sweep every meaningful Threshold and report the best placement.")
    term

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)
(* ------------------------------------------------------------------ *)

let schedule_run env circuit options_of_env =
  let options = options_of_env env in
  match Qcp.Portfolio.place options env circuit with
  | Qcp.Placer.Unplaceable msg ->
    Printf.printf "N/A: %s\n" msg;
    1
  | Qcp.Placer.Placed p ->
    print_string (Qcp.Schedule.render p);
    0

let schedule_cmd =
  let term = Term.(const schedule_run $ env_arg $ circuit_arg $ options_term) in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Place a circuit and print its compiled pulse timeline.")
    term

(* ------------------------------------------------------------------ *)
(* show                                                                *)
(* ------------------------------------------------------------------ *)

let show_run circuit qasm =
  if qasm then print_string (Qcp_circuit.Qasm.print circuit)
  else print_string (Qcp_circuit.Pretty.render circuit);
  0

let show_cmd =
  let qasm =
    Arg.(value & flag & info [ "qasm" ] ~doc:"Emit OpenQASM 2.0 instead of a diagram.")
  in
  let term = Term.(const show_run $ circuit_arg $ qasm) in
  Cmd.v
    (Cmd.info "show" ~doc:"Render a circuit as an ASCII diagram or OpenQASM.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket to listen on.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"TCP bind address.")

let serve_run socket port host jobs cache_cap max_batch queue_cap deadline
    max_requests telemetry verbose log_level log_file flight_cap
    slow_dump dump_dir =
  let jobs =
    match jobs with Some j -> j | None -> Qcp_util.Task_pool.env_jobs ()
  in
  let config =
    {
      Qcp_serve.Server.default_config with
      Qcp_serve.Server.socket_path = socket;
      port;
      host;
      jobs;
      cache_cap;
      max_batch;
      queue_cap;
      default_deadline = deadline;
      max_requests;
      telemetry;
      (* -v is shorthand for --log debug; an explicit --log wins. *)
      log_level =
        (match log_level with
        | None when verbose -> Some Qcp_obs.Log.Debug
        | l -> l);
      log_file;
      flight_cap;
      slow_dump;
      dump_dir;
    }
  in
  match Qcp_serve.Server.serve config with
  | () -> 0
  | exception Invalid_argument msg ->
    prerr_endline ("error: " ^ msg);
    2
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s: %s %s\n" (Unix.error_message e) fn arg;
    1

let serve_cmd =
  let term =
    Term.(
      const serve_run $ socket_arg $ port_arg $ host_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "QCP_JOBS")
              ~doc:
                "Task-pool domains shared by every request batch (0 = \
                 sequential).  Responses are identical at any value.")
      $ Arg.(
          value & opt int 512
          & info [ "cache-cap" ] ~docv:"N"
              ~doc:
                "Result-cache entries held (deterministic LRU; 0 disables \
                 the cache).")
      $ Arg.(
          value & opt int 16
          & info [ "max-batch" ] ~docv:"N"
              ~doc:"Requests solved per dispatch (in-flight bound).")
      $ Arg.(
          value & opt int 256
          & info [ "queue-cap" ] ~docv:"N"
              ~doc:
                "Waiting requests admitted before answering \
                 $(b,overloaded).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "deadline" ] ~docv:"SECONDS"
              ~doc:
                "Default per-request budget for requests that carry none; \
                 expiry yields a clean $(b,timeout) response.")
      $ Arg.(
          value & opt int 0
          & info [ "max-requests" ] ~docv:"N"
              ~doc:
                "Serve this many place requests, then drain and exit (0 = \
                 unlimited).  For benches and CI smoke tests.")
      $ Arg.(
          value & flag
          & info [ "telemetry" ]
              ~doc:"Arm the hot-path metrics instruments for all requests.")
      $ Arg.(
          value & flag
          & info [ "v"; "verbose" ]
              ~doc:"Alias for $(b,--log debug): log everything.")
      $ Arg.(
          let levels =
            [
              ("debug", Qcp_obs.Log.Debug);
              ("info", Qcp_obs.Log.Info);
              ("warn", Qcp_obs.Log.Warn);
              ("error", Qcp_obs.Log.Error);
            ]
          in
          value
          & opt (some (enum levels)) None
          & info [ "log" ] ~docv:"LEVEL"
              ~doc:
                "Emit structured line-JSON log events at $(docv) and above \
                 (debug, info, warn, error).  Off by default.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "log-file" ] ~docv:"FILE"
              ~doc:"Append log events to $(docv) instead of stderr.")
      $ Arg.(
          value & opt int 0
          & info [ "flight" ] ~docv:"N"
              ~doc:
                "Keep a flight recorder of the last $(docv) requests with \
                 their solve spans, dumpable as a Chrome trace via the \
                 $(b,dump) op (0 disables).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "slow-dump" ] ~docv:"SECONDS"
              ~doc:
                "Auto-dump the flight recorder to $(b,--dump-dir) whenever \
                 a dispatch takes longer than $(docv) seconds end-to-end or \
                 answers a non-ok status.")
      $ Arg.(
          value & opt string "."
          & info [ "dump-dir" ] ~docv:"DIR"
              ~doc:"Directory for auto-dumped flight traces."))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the placement daemon: line-delimited JSON requests over a \
          Unix socket and/or TCP, batched onto one persistent task pool \
          behind an exact result cache.")
    term

(* ------------------------------------------------------------------ *)
(* request                                                             *)
(* ------------------------------------------------------------------ *)

let request_run socket host port body =
  let address =
    match (socket, port) with
    | Some path, _ -> Qcp_serve.Client.Unix_socket path
    | None, Some port -> Qcp_serve.Client.Tcp (host, port)
    | None, None ->
      prerr_endline "error: give --socket PATH or --port PORT";
      exit 2
  in
  match Qcp_serve.Client.connect address with
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s: %s %s\n" (Unix.error_message e) fn arg;
    1
  | client ->
    let ok = ref true in
    let roundtrip line =
      let response = Qcp_serve.Client.request client line in
      print_endline response;
      (* The exit status mirrors the response status so scripts can
         branch without parsing JSON. *)
      match Qcp_util.Json.parse response with
      | Ok json
        when Option.bind (Qcp_util.Json.member "status" json)
               Qcp_util.Json.to_str
             = Some "ok" ->
        ()
      | Ok _ | Error _ -> ok := false
    in
    (match body with
    | Some line -> roundtrip line
    | None -> (
      (* No request argument: pipe mode, one request per stdin line. *)
      try
        while true do
          let line = input_line stdin in
          if String.trim line <> "" then roundtrip line
        done
      with End_of_file -> ()));
    Qcp_serve.Client.close client;
    if !ok then 0 else 1

let request_cmd =
  let body =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"JSON"
          ~doc:
            "One request line, e.g. '{\"op\":\"place\",\
             \"env\":\"trans-crotonic\",\"circuit\":\"phaseest\"}'.  \
             Omitted: read request lines from stdin.")
  in
  let term = Term.(const request_run $ socket_arg $ host_arg $ port_arg $ body) in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send request lines to a running $(b,qcp serve) daemon and print \
          the responses (exit 0 when every response has status ok).")
    term

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_run socket host port prom watch =
  let address =
    match (socket, port) with
    | Some path, _ -> Qcp_serve.Client.Unix_socket path
    | None, Some port -> Qcp_serve.Client.Tcp (host, port)
    | None, None ->
      prerr_endline "error: give --socket PATH or --port PORT";
      exit 2
  in
  match Qcp_serve.Client.connect address with
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s: %s %s\n" (Unix.error_message e) fn arg;
    1
  | client ->
    let line =
      if prom then {|{"op":"stats","format":"prometheus"}|}
      else {|{"op":"stats"}|}
    in
    let once () =
      let response = Qcp_serve.Client.request client line in
      match Qcp_util.Json.parse response with
      | Ok json
        when Option.bind (Qcp_util.Json.member "status" json)
               Qcp_util.Json.to_str
             = Some "ok" -> (
        match Qcp_util.Json.member "result" json with
        | Some (Qcp_util.Json.Str text) when prom ->
          (* The Prometheus exposition rides the protocol as one JSON
             string; print it raw so the output is scrapeable as-is. *)
          print_string text;
          flush stdout;
          true
        | Some result ->
          print_endline (Qcp_util.Json.to_string result);
          true
        | None ->
          prerr_endline "error: stats response carried no result";
          false)
      | Ok _ | Error _ ->
        prerr_endline ("error: " ^ response);
        false
    in
    let rc =
      match watch with
      | None -> if once () then 0 else 1
      | Some seconds ->
        let ok = ref true in
        while !ok do
          ok := once ();
          if !ok then Unix.sleepf (Float.max 0.05 seconds)
        done;
        1
    in
    Qcp_serve.Client.close client;
    rc

let stats_cmd =
  let prom =
    Arg.(
      value & flag
      & info [ "prom"; "prometheus" ]
          ~doc:"Print Prometheus text exposition instead of JSON.")
  in
  let watch =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:"Poll the daemon every $(docv) seconds until interrupted.")
  in
  let term =
    Term.(const stats_run $ socket_arg $ host_arg $ port_arg $ prom $ watch)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fetch a running daemon's counters: JSON by default, \
          $(b,--prom) for Prometheus text exposition (scrape target via \
          a one-line exporter), $(b,--watch) to poll.")
    term

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_run spill register =
  match Qcp.Verify.Stream.verify_file ?register spill with
  | Error msg ->
    Printf.printf "INVALID %s: %s\n" spill msg;
    1
  | Ok r ->
    Printf.printf
      "valid: %d compute stages, %d swap stages (%d levels, %d swaps), \
       makespan %.4f sec (%.0f units), %d qubits\n"
      r.Qcp.Verify.Stream.computes r.Qcp.Verify.Stream.networks
      r.Qcp.Verify.Stream.swap_depth r.Qcp.Verify.Stream.swap_count
      (r.Qcp.Verify.Stream.makespan /. 10000.0)
      r.Qcp.Verify.Stream.makespan r.Qcp.Verify.Stream.qubits;
    0

let verify_cmd =
  let spill =
    Arg.(
      required
      & opt (some string) None
      & info [ "spill" ] ~docv:"FILE"
          ~doc:"Line-JSON stage stream written by $(b,place --spill FILE).")
  in
  let register =
    Arg.(
      value
      & opt (some int) None
      & info [ "register" ] ~docv:"N"
          ~doc:
            "Environment size: additionally check every placement entry \
             lies in [0, $(docv)).")
  in
  let term = Term.(const verify_run $ spill $ register) in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Stream a spilled run's stage file at constant memory and check \
          its structural invariants (stage shape, injective placements, \
          monotone makespan).")
    term

let () =
  let info =
    Cmd.info "qcp" ~version:"1.0.0"
      ~doc:"Quantum circuit placement (Maslov, Falconer, Mosca; DAC-2007)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            place_cmd; route_cmd; runtime_cmd; gen_cmd; show_cmd; schedule_cmd;
            tune_cmd; report_cmd; serve_cmd; request_cmd; stats_cmd;
            verify_cmd;
          ]))
