(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) and runs Bechamel microbenchmarks of the hot
   kernels (one per table).

   Usage:
     bench/main.exe                 -- all tables, figures, npc, ablation, micro
     bench/main.exe table3          -- one artifact
     bench/main.exe table4 --full   -- the full 8..1024 sweep of Table 4
     bench/main.exe micro           -- microbenchmarks only
     bench/main.exe micro --json    -- also write BENCH_micro.json
                                       (kernel name -> ns/run)               *)

module Experiments = Qcp_report.Experiments

let section title body =
  Printf.printf "==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n";
  print_string body;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per table/figure kernel.    *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let acetyl = Qcp_env.Molecules.acetyl_chloride in
  let crotonic = Qcp_env.Molecules.trans_crotonic_acid in
  let qec3 = Qcp_circuit.Catalog.qec3_encode in
  let phaseest = Qcp_circuit.Catalog.phase_estimation 4 in
  let weights = Qcp_env.Environment.weights acetyl in
  let table1_kernel () =
    (* Table 1's kernel: one timing-model evaluation. *)
    Qcp_circuit.Timing.runtime ~weights ~place:(fun q -> 2 - q) qec3
  in
  let table2_kernel () =
    match
      Qcp.Placer.place (Qcp.Options.default ~threshold:100.0) acetyl qec3
    with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  let table3_kernel () =
    match
      Qcp.Placer.place (Qcp.Options.default ~threshold:100.0) crotonic phaseest
    with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  let table4_rng = Qcp_util.Rng.create 99 in
  let table4_circuit, _ = Qcp_circuit.Random_circuit.hidden_stages table4_rng ~n:32 in
  let table4_env = Qcp_env.Environment.chain 32 in
  let table4_kernel () =
    match
      Qcp.Placer.place (Qcp.Options.fast ~threshold:50.0) table4_env table4_circuit
    with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  let bonds = Qcp_env.Environment.adjacency crotonic ~threshold:100.0 in
  let figure3_kernel () =
    Qcp_route.Bisect_router.route bonds ~perm:[| 1; 3; 4; 6; 5; 2; 0 |]
  in
  let pattern = Qcp_graph.Generators.path_graph 5 in
  let monomorph_kernel () =
    Qcp_graph.Monomorph.enumerate ~limit:100 ~pattern ~target:bonds ()
  in
  let petersen = Qcp_graph.Generators.petersen () in
  (* Dense variant: a 6-cycle into the Petersen graph exercises the
     multi-neighbor candidate intersections instead of chains of single
     constraints. *)
  let dense_pattern = Qcp_graph.Generators.cycle_graph 6 in
  let monomorph_dense_kernel () =
    Qcp_graph.Monomorph.enumerate ~limit:100 ~pattern:dense_pattern
      ~target:petersen ()
  in
  let npc_kernel () = Qcp.Np_reduction.optimal_cost petersen in
  (* The workspace's incremental embeddability oracle end to end: split the
     Table 3 workload into alignable subcircuits with the paper's greedy
     split (window 1). *)
  let split_kernel () =
    Qcp.Workspace.split_windowed ~window:1 ~adjacency:bonds phaseest
  in
  (* The scoring engine itself: one full placement of the Table 3 workload
     with the default engine (memoized, incumbent-pruned). *)
  let score_kernel () =
    match
      Qcp.Placer.place (Qcp.Options.default ~threshold:100.0) crotonic phaseest
    with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  (* Bounded-search kernels: the lookahead sweep in isolation (fine tuning
     off, so the time is dominated by candidate evaluation under
     lower-bound ordering and incumbent cutoffs) and the fine-tuning
     hill-climb in isolation (lookahead off, so every probe runs under the
     current-best cutoff). *)
  let lookahead_kernel () =
    let options =
      { (Qcp.Options.default ~threshold:100.0) with Qcp.Options.fine_tune_passes = 0 }
    in
    match Qcp.Placer.place options crotonic phaseest with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  let fine_tune_kernel () =
    let options =
      { (Qcp.Options.default ~threshold:100.0) with Qcp.Options.lookahead = false }
    in
    match Qcp.Placer.place options crotonic phaseest with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  (* The task pool's dispatch cost in isolation: a parallel region over
     trivial slots is all recruitment, index claiming and join. *)
  let pool = Qcp_util.Task_pool.get () in
  let pool_sink = Array.make 256 0 in
  let pool_overhead_kernel () =
    Qcp_util.Task_pool.parallel_for pool ~jobs:2
      ~body:(fun ~worker:_ i -> pool_sink.(i) <- i)
      256
  in
  (* The Table 3 placement with the candidate sweep fanned out over the
     pool; compare against table3/place-phaseest-crotonic (jobs = 0). *)
  let score_parallel_kernel () =
    let options =
      { (Qcp.Options.default ~threshold:100.0) with Qcp.Options.jobs = 4 }
    in
    match Qcp.Placer.place options crotonic phaseest with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  (* The batch placement path end to end: Tables 2-4 through
     [Placer.place_batch] with a trimmed enumeration budget.  The jobs
     value follows QCP_JOBS so the committed baseline stays sequential. *)
  let tables234_kernel () =
    Experiments.tables234 ~monomorphism_limit:24
      ~jobs:(Qcp_util.Task_pool.env_jobs ())
      ()
  in
  (* The five-entry portfolio reduce on the Table 3 workload; the
     annealer's fixed iteration budget is most of its time. *)
  let portfolio_options =
    { (Qcp.Options.default ~threshold:100.0) with Qcp.Options.portfolio = true }
  in
  let portfolio_kernel () =
    match Qcp.Portfolio.run portfolio_options crotonic phaseest with
    | Ok report -> report.Qcp.Portfolio.runtime
    | Error _ -> nan
  in
  (* Scale kernels: the windowed + hierarchical path on instances far past
     the classic pipeline's reach.  Environments, circuits and memoized
     threshold adjacencies are all built here, outside the staged closures,
     so the timed region measures placement — not generators. *)
  let scale_threshold = 50.0 in
  let grid1024_env = Qcp_env.Environment.grid 32 32 in
  let grid1024_circuit =
    let rng = Qcp_util.Rng.create 4242 in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:1024 ~stages:4
      ~gates_per_stage:25_600
  in
  let heavyhex_env = Qcp_env.Environment.heavy_hex 16 16 in
  let heavyhex_circuit =
    let rng = Qcp_util.Rng.create 4243 in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:256 ~stages:4
      ~gates_per_stage:4_096
  in
  let stream_env = Qcp_env.Environment.grid 16 16 in
  let stream_circuit =
    let rng = Qcp_util.Rng.create 4244 in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:256 ~stages:4
      ~gates_per_stage:4_096
  in
  List.iter
    (fun env ->
      ignore
        (Qcp_env.Environment.connected_adjacency env ~threshold:scale_threshold
          : Qcp_graph.Graph.t option))
    [ grid1024_env; heavyhex_env; stream_env ];
  let stream_adjacency =
    Qcp_env.Environment.adjacency stream_env ~threshold:scale_threshold
  in
  let scale_place env circuit () =
    match
      Qcp.Placer.place (Qcp.Options.scale ~threshold:scale_threshold) env circuit
    with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  let scale_grid1024_kernel = scale_place grid1024_env grid1024_circuit in
  let scale_heavyhex_kernel = scale_place heavyhex_env heavyhex_circuit in
  (* The streaming splitter in isolation: no candidate enumeration, no
     scoring — just the DAG pop/defer/close loop plus the witness oracle. *)
  let scale_window_stream_kernel () =
    Qcp.Workspace.split_windowed ~window:256 ~adjacency:stream_adjacency
      stream_circuit
  in
  Test.make_grouped ~name:"qcp"
    [
      Test.make ~name:"table1/timing-eval" (Staged.stage table1_kernel);
      Test.make ~name:"table2/place-qec3-acetyl" (Staged.stage table2_kernel);
      Test.make ~name:"table3/place-phaseest-crotonic" (Staged.stage table3_kernel);
      Test.make ~name:"table4/place-chain32" (Staged.stage table4_kernel);
      Test.make ~name:"figure3/route-crotonic" (Staged.stage figure3_kernel);
      Test.make ~name:"kernel/monomorphism" (Staged.stage monomorph_kernel);
      Test.make ~name:"kernel/monomorphism-dense"
        (Staged.stage monomorph_dense_kernel);
      Test.make ~name:"kernel/workspace-split" (Staged.stage split_kernel);
      Test.make ~name:"npc/petersen-branch-bound" (Staged.stage npc_kernel);
      Test.make ~name:"kernel/score-candidate-cached" (Staged.stage score_kernel);
      Test.make ~name:"kernel/lookahead-pruned" (Staged.stage lookahead_kernel);
      Test.make ~name:"kernel/fine-tune" (Staged.stage fine_tune_kernel);
      Test.make ~name:"kernel/pool-overhead" (Staged.stage pool_overhead_kernel);
      Test.make ~name:"kernel/score-parallel" (Staged.stage score_parallel_kernel);
      Test.make ~name:"portfolio/reduce-table3" (Staged.stage portfolio_kernel);
      Test.make ~name:"batch/tables234" (Staged.stage tables234_kernel);
      Test.make ~name:"scale/place-grid1024" (Staged.stage scale_grid1024_kernel);
      Test.make ~name:"scale/place-heavyhex" (Staged.stage scale_heavyhex_kernel);
      Test.make ~name:"scale/window-stream"
        (Staged.stage scale_window_stream_kernel);
    ]

let json_escape name =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length name) (String.get name)))

let write_micro_json rows =
  let out = open_out "BENCH_micro.json" in
  output_string out "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf out "  \"%s\": %.1f%s\n" (json_escape name) ns
        (if i + 1 < List.length rows then "," else ""))
    rows;
  output_string out "}\n";
  close_out out;
  Printf.printf "\nwrote BENCH_micro.json (%d kernels, ns/run)\n"
    (List.length rows)

(* One-shot memory probes for the bounded-memory contract, run FIRST:
   [Gc.stat ().top_heap_words] is a process-lifetime high-water mark, so
   the observation is only meaningful before Bechamel's sampling loops
   inflate the heap.  Each probe contributes two rows: wall ns/run (fed
   through the same 2x regression gate as every kernel) and the top-heap
   watermark in words after the run.  The watermark covers the input
   circuit plus the streaming state — O(window + environment) beyond the
   gates — and the CI memory gate pins it to a budget far below what
   materializing the offline DAG's edge lists or the full stage list
   costs at this size, so a reintroduced whole-circuit materialization
   fails the gate. *)
let memory_probes ?(full = false) () =
  let threshold = 50.0 in
  (* Default: grid-256 / 10^5 gates, cheap enough for every micro run and
     the CI gate.  [--full] (the `mem` target): grid-1024 / 10^6 gates,
     the acceptance-size instance — same probes, one-shot only. *)
  let env =
    if full then Qcp_env.Environment.grid 32 32
    else Qcp_env.Environment.grid 16 16
  in
  let circuit =
    let rng = Qcp_util.Rng.create 4747 in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng
      ~n:(if full then 1024 else 256)
      ~stages:4
      ~gates_per_stage:(if full then 250_000 else 25_000)
  in
  let probe name f =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let _ = f () in
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    let top = float_of_int (Gc.stat ()).Gc.top_heap_words in
    [ (name, ns); (name ^ "/top-heap-words", top) ]
  in
  let stream_rows =
    probe "scale/dag-stream" (fun () ->
        let stream = Qcp_circuit.Dag.Stream.create circuit in
        let rec drain acc =
          match Qcp_circuit.Dag.Stream.next stream with
          | None -> acc
          | Some i ->
            Qcp_circuit.Dag.Stream.emit stream i;
            drain (acc + 1)
        in
        drain 0)
  in
  let spill_rows =
    probe "scale/place-spill" (fun () ->
        let options =
          {
            (Qcp.Options.scale ~threshold) with
            Qcp.Options.spill = Qcp.Options.Spill_drop;
            jobs = 0;
          }
        in
        match Qcp.Placer.place options env circuit with
        | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
        | Qcp.Placer.Unplaceable _ -> nan)
  in
  stream_rows @ spill_rows

(* One-shot load generator against a live [qcp serve] daemon, over a Unix
   socket in a temp dir: per-request round-trip latencies (client-side
   wall clock) summarized as mean / p50 / p99 ns plus req/s.  Two kernels:

   - serve/throughput: 64 requests with distinct content keys (the
     [monomorphisms] knob varies, so every request is a cold solve through
     the batch path) — the daemon's sustained solve rate;
   - serve/hit-path: 256 repeats of one warmed request — the exact-cache
     hit path, which the acceptance criterion pins well below a cold
     solve; five passes, each row the median across them.  Its cold-ns
     row is the median of five first requests, each to a fresh daemon;
   - serve/log-overhead: the same hit kernel against a second daemon with
     the full observability stack armed (debug logging to a file, flight
     recorder) — the regression gate holds its p50 within 2x of the quiet
     hit path, keeping telemetry cost honest.

   The [req-per-s] rows are rates (higher is better); regression.exe
   special-cases the suffix. *)
let daemon_config socket log_file =
  let config =
    {
      Qcp_serve.Server.default_config with
      Qcp_serve.Server.socket_path = Some socket;
      jobs = 0;
      install_signals = false;
    }
  in
  match log_file with
  | None -> config
  | Some path ->
    {
      config with
      Qcp_serve.Server.log_level = Some Qcp_obs.Log.Debug;
      log_file = Some path;
      flight_cap = 64;
    }

(* Each daemon runs in its own process ([main.exe serve-daemon SOCKET
   [LOG_FILE]]).  As a domain of this process, every minor collection on
   either side stopped both, and the blocked side's wake-up latency set
   the hit kernels' tails: a p99 of 0.25 ms in most runs, ~8 ms in some.
   [f] talks to the daemon and ends by asking it to shut down; if [f]
   raises, the daemon is killed instead of outliving the bench. *)
let with_daemon ?log_file name f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qcp-bench-%s%d.sock" name (Unix.getpid ()))
  in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list
         ([ Sys.executable_name; "serve-daemon"; socket ] @ Option.to_list log_file))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let reap () = ignore (Unix.waitpid [] pid : int * Unix.process_status) in
  match f (Qcp_serve.Client.connect (Qcp_serve.Client.Unix_socket socket)) with
  | rows ->
    reap ();
    rows
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap ();
    raise e

let serve_probes () =
  let shutdown client =
    ignore (Qcp_serve.Client.request client "{\"op\":\"shutdown\"}" : string);
    Qcp_serve.Client.close client
  in
  let ok_needle = {|"status":"ok"|} in
  let is_ok resp =
    let n = String.length ok_needle and m = String.length resp in
    let rec scan i =
      i + n <= m && (String.sub resp i n = ok_needle || scan (i + 1))
    in
    scan 0
  in
  let roundtrip client line =
    let t0 = Unix.gettimeofday () in
    let resp = Qcp_serve.Client.request client line in
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    if not (is_ok resp) then failwith ("serve probe: non-ok response " ^ resp);
    ns
  in
  let percentile samples p =
    let arr = Array.of_list (List.sort compare samples) in
    arr.(Int.min (Array.length arr - 1)
           (int_of_float (p *. float_of_int (Array.length arr))))
  in
  let run client name requests =
    let t0 = Unix.gettimeofday () in
    let samples = List.map (roundtrip client) requests in
    let total_s = Unix.gettimeofday () -. t0 in
    let n = List.length samples in
    [
      (name, List.fold_left ( +. ) 0.0 samples /. float_of_int n);
      (name ^ "/p50-ns", percentile samples 0.50);
      (name ^ "/p99-ns", percentile samples 0.99);
      (name ^ "/req-per-s", float_of_int n /. total_s);
    ]
  in
  (* The gated hit kernels: one 256-request pass puts its p99 at about the
     third-largest sample, which one scheduler hiccup moves by 20x.  Each
     row is instead the median of that row over [hit_passes] passes.  The
     daemon's own process ([with_daemon]) removes the shared-collection
     stalls, not these hiccups or the first pass's warm-up: over 20 runs
     on a 2-core x86-64 host, the first pass alone read hit p99 0.15-2.98
     ms (log-overhead 0.18-0.43 ms), the five-pass median 0.12-0.23 ms
     (0.14-0.35 ms). *)
  let hit_passes = 5 in
  let run_median client name requests =
    let passes = List.init hit_passes (fun _ -> run client name requests) in
    List.map
      (fun (row, _) ->
        (row, percentile (List.map (List.assoc row) passes) 0.50))
      (List.hd passes)
  in
  let place_line id options =
    Printf.sprintf
      "{\"id\":%S,\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qft6\",\"options\":{%s}}"
      id options
  in
  let hit_line = place_line "h" "\"threshold\":100" in
  (* The baseline for the >=10x hit-speedup criterion: a genuinely cold
     solve, so each sample is the first request of a fresh daemon (a
     daemon keeps its shared adjacency and route tables warm for life).
     One solve is at the mercy of one scheduler hiccup; the row is the
     median of [cold_solves] of them. *)
  let cold_solves = 5 in
  let hit_cold_ns =
    percentile
      (List.init cold_solves (fun i ->
           with_daemon (Printf.sprintf "cold%d-" i) @@ fun client ->
           let ns = roundtrip client hit_line in
           shutdown client;
           ns))
      0.50
  in
  let hit_rows, throughput_rows =
    with_daemon "" @@ fun client ->
    ignore (roundtrip client hit_line : float);
    let hit_rows =
      run_median client "serve/hit-path" (List.init 256 (fun _ -> hit_line))
    in
    let throughput_rows =
      run client "serve/throughput"
        (List.init 64 (fun i ->
             place_line
               (Printf.sprintf "t%d" i)
               (Printf.sprintf "\"threshold\":100,\"monomorphisms\":%d" (8 + i))))
    in
    shutdown client;
    (hit_rows @ [ ("serve/hit-path/cold-ns", hit_cold_ns) ], throughput_rows)
  in
  (* Second daemon with the observability stack armed: every request
     emits an access-log line to a file and lands in the flight ring. *)
  let log_file = Filename.temp_file "qcp-bench-serve" ".log" in
  let log_rows =
    Fun.protect ~finally:(fun () -> try Sys.remove log_file with Sys_error _ -> ())
    @@ fun () ->
    with_daemon ~log_file "armed-" @@ fun client ->
    ignore (roundtrip client hit_line : float);
    let rows =
      run_median client "serve/log-overhead" (List.init 256 (fun _ -> hit_line))
    in
    shutdown client;
    rows
  in
  throughput_rows @ hit_rows @ log_rows

let print_serve_rows rows =
  Printf.printf "%-40s %16s\n" "serving probe (one-shot)" "value";
  Printf.printf "%-40s %16s\n" (String.make 40 '-') (String.make 16 '-');
  List.iter
    (fun (name, v) ->
      if String.ends_with ~suffix:"/req-per-s" name then
        Printf.printf "%-40s %12.1f /s\n" name v
      else Printf.printf "%-40s %12.3f us\n" name (v /. 1e3))
    rows

let print_memory_rows rows =
  Printf.printf "%-40s %16s\n" "memory probe (one-shot)" "value";
  Printf.printf "%-40s %16s\n" (String.make 40 '-') (String.make 16 '-');
  List.iter
    (fun (name, v) ->
      if String.ends_with ~suffix:"/top-heap-words" name then
        Printf.printf "%-40s %13.1f MB\n" name (v *. 8.0 /. 1e6)
      else Printf.printf "%-40s %14.3f s\n" name (v /. 1e9))
    rows

let run_micro ?(json = false) () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let mem_rows = memory_probes () in
  print_memory_rows mem_rows;
  print_newline ();
  let serve_rows = serve_probes () in
  print_serve_rows serve_rows;
  print_newline ();
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows =
    List.sort compare
      (List.map
         (fun (name, r) ->
           let estimate =
             match Analyze.OLS.estimates r with
             | Some [ value ] -> value
             | Some _ | None -> nan
           in
           (name, estimate))
         rows)
  in
  Printf.printf "%-40s %16s\n" "microbenchmark" "time/run";
  Printf.printf "%-40s %16s\n" (String.make 40 '-') (String.make 16 '-');
  List.iter
    (fun (name, estimate) ->
      let pretty =
        if estimate >= 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
        else if estimate >= 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate >= 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.0f ns" estimate
      in
      Printf.printf "%-40s %16s\n" name pretty)
    rows;
  if json then begin
    (* The memory-probe rows ride in the same JSON so the regression gate
       and the CI memory budget read one file; they are not ns/run, hence
       kept out of the time-formatted table above. *)
    write_micro_json (List.sort compare (mem_rows @ serve_rows @ rows));
    (* Snapshot the process-global metrics registry beside the timings.
       Aggregation is armed by QCP_METRICS=1 (off by default because the
       instrumentation perturbs the timings being measured); without it
       the snapshot only carries zeroed hot-path instruments. *)
    let snapshot = Qcp_obs.Metrics.snapshot Qcp_obs.Metrics.global in
    Qcp_obs.Export.write_metrics_file "BENCH_metrics.json" snapshot;
    Printf.printf "wrote BENCH_metrics.json (%d instruments)\n"
      (List.length snapshot)
  end

(* One-shot wall-clock timings of the scale kernels, for sizing runs and
   README numbers without waiting for Bechamel's sampling loop. *)
let run_scale_once () =
  let time name f =
    let t0 = Unix.gettimeofday () in
    let _ = f () in
    Printf.printf "%-28s %8.2f s\n%!" name (Unix.gettimeofday () -. t0)
  in
  let scale_threshold = 50.0 in
  let place ?(options = Qcp.Options.scale ~threshold:scale_threshold) env circuit
      () =
    match Qcp.Placer.place options env circuit with
    | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
    | Qcp.Placer.Unplaceable _ -> nan
  in
  let grid_env = Qcp_env.Environment.grid 32 32 in
  let grid_circuit =
    let rng = Qcp_util.Rng.create 4242 in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:1024 ~stages:4
      ~gates_per_stage:25_600
  in
  let heavyhex_env = Qcp_env.Environment.heavy_hex 16 16 in
  let heavyhex_circuit =
    let rng = Qcp_util.Rng.create 4243 in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng ~n:256 ~stages:4
      ~gates_per_stage:4_096
  in
  time "scale/place-grid1024" (place grid_env grid_circuit);
  time "scale/place-heavyhex" (place heavyhex_env heavyhex_circuit);
  let adjacency =
    Qcp_env.Environment.adjacency grid_env ~threshold:scale_threshold
  in
  time "scale/window-stream-grid1024" (fun () ->
      Qcp.Workspace.split_windowed ~window:256 ~adjacency grid_circuit)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let () =
  if Sys.getenv_opt "QCP_METRICS" <> None then
    Qcp_obs.Metrics.set_enabled true;
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let json = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--full" && a <> "--json") args in
  let run = function
    | "table1" -> section "Table 1" (Experiments.table1 ())
    | "table2" -> section "Table 2" (Experiments.table2 ())
    | "table3" -> section "Table 3" (Experiments.table3 ())
    | "table4" -> section "Table 4" (Experiments.table4 ~full ())
    | "figure1" -> section "Figure 1" (Experiments.figure1 ())
    | "figure2" -> section "Figure 2" (Experiments.figure2 ())
    | "figure3" -> section "Figure 3" (Experiments.figure3 ())
    | "figure4" -> section "Figure 4" (Experiments.figure4 ())
    | "npc" -> section "NP-completeness (Section 4)" (Experiments.npc ())
    | "ablation" -> section "Ablation" (Experiments.ablation ())
    | "fidelity" -> section "Fidelity (extension)" (Experiments.fidelity ())
    | "arch" -> section "Architectures (extension)" (Experiments.architectures ())
    | "schedule" -> section "Pulse schedule (extension)" (Experiments.schedule_demo ())
    | "micro" ->
      section "Microbenchmarks (Bechamel)" "";
      run_micro ~json ()
    | "scale" ->
      section "Scale kernels (single run, wall clock)" "";
      run_scale_once ()
    | "mem" ->
      section "Memory probes (Gc top-heap watermark, one-shot)" "";
      print_memory_rows (memory_probes ~full ())
    | "serve" ->
      section "Serving probes (daemon round-trip latency, one-shot)" "";
      print_serve_rows (serve_probes ())
    | other ->
      Printf.eprintf
        "unknown target %S (expected table1..table4, figure1..figure4, npc, ablation, fidelity, micro)\n"
        other;
      exit 2
  in
  match args with
  | "serve-daemon" :: socket :: log_file ->
    Qcp_serve.Server.serve (daemon_config socket (List.nth_opt log_file 0))
  | [] ->
    List.iter run
      [
        "table1"; "table2"; "table3"; "table4"; "figure1"; "figure2";
        "figure3"; "figure4"; "npc"; "ablation"; "fidelity"; "arch";
        "schedule"; "micro";
      ]
  | targets -> List.iter run targets
