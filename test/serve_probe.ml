(* Serving probes against live [qcp serve] daemons, each in its own
   process over a Unix socket in a temp dir: per-request round-trip
   latencies (client-side wall clock) summarized as mean / p50 / p99 ns
   plus req/s.  Three kernels:

   - serve/throughput: 64 requests with distinct content keys (the
     [monomorphisms] knob varies, so every request is a cold solve through
     the batch path) — the daemon's sustained solve rate;
   - serve/hit-path: 256 repeats of one warmed request — the exact-cache
     hit path, which CI pins at least 10x below a cold solve; five
     passes, each row the median across them.  Its cold-ns row is the
     median of five first requests, each to a fresh daemon;
   - serve/log-overhead: the same hit kernel against a second daemon with
     the full observability stack armed (debug logging to a file, flight
     recorder) — CI holds its p50 within 2x of the quiet hit path,
     keeping telemetry cost honest.

   The checks are timing ratios, so this is not part of [dune runtest].

   Usage: serve_probe.exe OUT.json   -- print the rows, write them to OUT.json
          serve_probe.exe serve-daemon SOCKET [LOG_FILE]   -- one probe daemon *)

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

(* Each daemon runs in its own process ([serve_probe.exe serve-daemon
   SOCKET [LOG_FILE]]).  As a domain of this process, every minor collection on
   either side stopped both, and the blocked side's wake-up latency set
   the hit kernels' tails: a p99 of 0.25 ms in most runs, ~8 ms in some.
   [f] talks to the daemon and ends by asking it to shut down; if [f]
   raises, the daemon is killed instead of outliving the probe. *)
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

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "serve-daemon" :: socket :: log_file ->
    Qcp_serve.Server.serve (daemon_config socket (List.nth_opt log_file 0))
  | [ out ] ->
    let rows = serve_probes () in
    List.iter
      (fun (name, v) ->
        if String.ends_with ~suffix:"/req-per-s" name then
          Printf.printf "%-40s %12.1f /s\n" name v
        else Printf.printf "%-40s %12.3f us\n" name (v /. 1e3))
      rows;
    Out_channel.with_open_text out (fun oc ->
        output_string oc
          (Qcp_util.Json.to_string
             (Qcp_util.Json.Obj
                (List.map (fun (name, v) -> (name, Qcp_util.Json.Num v)) rows))
          ^ "\n"))
  | _ ->
    prerr_endline "usage: serve_probe.exe OUT.json";
    exit 2
