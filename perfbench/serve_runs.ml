(* serve-hit and serve-mixed: a [qcp serve] daemon in its own process
   (this executable's [daemon] command, which runs
   [Qcp_serve.Server.serve]), driven over a Unix socket by a
   single-threaded load generator on at most two connections, so client
   and daemon never share a heap. *)

module Json = Qcp_util.Json
module Rng = Qcp_util.Rng
module Server = Qcp_serve.Server
module Engine = Qcp_serve.Server.Engine
module Protocol = Qcp_serve.Protocol
module Trace = Qcp_obs.Trace
module Conn = Proc.Conn
module Vec = Stat.Vec

let now = Proc.now

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

(* The daemon command: serve until shut down, reporting the peak heap on
   stdout at exit and whenever SIGUSR1 asks. *)
let daemon_main ~socket ~queue_cap =
  let report () =
    Printf.printf "{\"top_heap_words\":%d}\n%!" (Gc.quick_stat ()).Gc.top_heap_words
  in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> report ()));
  Server.serve
    { Server.default_config with Server.socket_path = Some socket; jobs = 0; queue_cap };
  report ()

type daemon = { pid : int; report : Proc.Lines.t; socket : string }

let daemons_started = ref 0

let start_daemon (cfg : Spec.config) ~queue_cap =
  incr daemons_started;
  (* Relative to the working directory: Unix socket paths are limited to
     about a hundred bytes, and the checkout may sit deep. *)
  let socket =
    Filename.concat cfg.Spec.out_dir
      (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !daemons_started)
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Proc.spawn
      [ "daemon"; "--socket"; socket; "--queue-cap"; string_of_int queue_cap ]
      ~stdout:w
  in
  Unix.close w;
  { pid; report = Proc.Lines.create r; socket }

let heap_of_report line =
  match Option.map Json.parse line with
  | Some (Ok json) -> Option.bind (Json.member "top_heap_words" json) Json.to_float
  | _ -> None

(* The running daemon's peak heap so far, in words. *)
let daemon_heap d =
  Unix.kill d.pid Sys.sigusr1;
  heap_of_report (Proc.Lines.next d.report ~deadline:(now () +. 10.0))

(* After a shutdown request: wait for the daemon to exit and return its
   peak heap in words. *)
let finish_daemon d =
  let line = Proc.Lines.next d.report ~deadline:(now () +. 60.0) in
  if line = None then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let status = Proc.reap d.pid in
  Unix.close d.report.Proc.Lines.fd;
  if Proc.exited_ok status then heap_of_report line else None

(* ------------------------------------------------------------------ *)
(* Requests and responses                                              *)
(* ------------------------------------------------------------------ *)

let place_line id body = Printf.sprintf "{\"id\":%S,\"op\":\"place\",%s}" id body

let warm_line i body = place_line (Printf.sprintf "w%d" i) body

let body ~env ~circuit options =
  Printf.sprintf "\"env\":%s,\"circuit\":%s,\"options\":{%s}"
    (Json.to_string (Json.Str env))
    (Json.to_string (Json.Str circuit))
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (Json.to_string (Json.Num v))) options))

let paper_body (c : Instances.paper_cell) =
  body ~env:c.Instances.env_name ~circuit:c.Instances.circuit_name
    (match c.Instances.threshold with Some th -> [ ("threshold", th) ] | None -> [])

(* Warmed keys.  serve-hit: every placeable Table 2/3 cell (61), so the
   key-size mix, and with it the hit cost, is the same at every seed.
   serve-mixed: those plus the 3-qubit encoder at three more thresholds
   (64), requested under Zipf(1) in reverse paper order: the histidine
   cells, whose solves take up to 130 ms, are the popular ones, and the
   rare keys that LRU evicts under the cold inserts re-solve in well
   under a millisecond. *)
let hot_bodies workload =
  let cells = List.filter Instances.paper_cell_placeable Instances.paper_cells in
  let bodies = List.map paper_body cells in
  if workload = "serve-mixed" then
    Array.of_list
      (List.rev
         (bodies
         @ List.map
             (fun th -> body ~env:"acetyl-chloride" ~circuit:"qec3" [ ("threshold", th) ])
             [ 50.0; 100.0; 1000.0 ]))
  else Array.of_list bodies

let find_sub s sub from =
  let n = String.length s and k = String.length sub in
  let rec matches i j = j = k || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + k > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* Responses render as {"id":..,"status":..,"cached":..,...,"result":R}
   with the result last on "ok" (Protocol.response); ids here never need
   escaping. *)
let string_field line name =
  let tag = "\"" ^ name ^ "\":\"" in
  match find_sub line tag 0 with
  | None -> None
  | Some i ->
    let start = i + String.length tag in
    Option.map
      (fun stop -> String.sub line start (stop - start))
      (String.index_from_opt line start '"')

let is_cached line = find_sub line ",\"cached\":true" 0 <> None

let result_text line =
  match find_sub line ",\"result\":" 0 with
  | None -> None
  | Some i ->
    let start = i + 10 in
    Some (String.sub line start (String.length line - start - 1))

(* The "runtime" member leads every result object. *)
let runtime_text result =
  let tag = "{\"runtime\":" in
  if String.length result > String.length tag
     && String.sub result 0 (String.length tag) = tag
  then
    let start = String.length tag in
    Option.map
      (fun stop -> String.sub result start (stop - start))
      (String.index_from_opt result start ',')
  else None

let runtime_of result = Option.bind (runtime_text result) float_of_string_opt

(* The result text and runtime of an "ok" place response. *)
let ok_result line =
  match string_field line "status" with
  | Some "ok" ->
    Option.bind (result_text line) (fun r -> Option.map (fun rt -> (r, rt)) (runtime_of r))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Set-up: fresh daemon, its connections, warmed cache                 *)
(* ------------------------------------------------------------------ *)

type warm = { w_result : string; w_runtime : float }

type live = {
  daemon : daemon;
  conns : Conn.t array;
  warm : warm array;
  setup_s : float;
}

let start_live cfg ~clients ~queue_cap ~hot ~note =
  let t0 = now () in
  let daemon = start_daemon cfg ~queue_cap in
  let deadline = t0 +. 30.0 in
  let conns = Array.init clients (fun _ -> Conn.connect daemon.socket ~deadline) in
  let warm =
    Array.mapi
      (fun i b ->
        let resp = Conn.request conns.(0) (warm_line i b) ~timeout:60.0 in
        match ok_result resp with
        | Some (r, rt) -> { w_result = r; w_runtime = rt }
        | None ->
          note ("warm-up request failed: " ^ resp);
          { w_result = ""; w_runtime = Float.nan })
      hot
  in
  { daemon; conns; warm; setup_s = now () -. t0 }

let control_request live line =
  Conn.request live.conns.(0) line ~timeout:60.0

(* Shut the daemon down, drain every response still due, and return the
   remaining lines (in arrival order) and the daemon's peak heap. *)
let stop_live live =
  Conn.send live.conns.(0) "{\"id\":\"shutdown\",\"op\":\"shutdown\"}";
  let conns = Array.to_list live.conns in
  let rest = ref [] in
  let deadline = now () +. 90.0 in
  let all_eof () = List.for_all (fun c -> c.Conn.lines.Proc.Lines.eof) conns in
  while not (all_eof ()) && now () < deadline do
    ignore (Conn.pump conns ~deadline:(now () +. 1.0) : float);
    List.iter
      (fun c ->
        let rec drain () =
          match Proc.Lines.take c.Conn.lines with
          | Some l -> rest := (now (), l) :: !rest; drain ()
          | None -> ()
        in
        drain ())
      conns
  done;
  List.iter Conn.close conns;
  let heap = finish_daemon live.daemon in
  (List.rev !rest, heap)

(* Set-up [n] times and keep the last daemon; set-up time is the median. *)
let setup cfg ~clients ~queue_cap ~hot ~note =
  let n = if cfg.Spec.smoke then 1 else 3 in
  let rec go i times =
    let live = start_live cfg ~clients ~queue_cap ~hot ~note in
    let times = live.setup_s :: times in
    if i + 1 >= n then (live, Stat.median (Array.of_list times))
    else begin
      ignore (stop_live live : _ * _);
      go (i + 1) times
    end
  in
  go 0 []

(* The lowest [p]th percentile over a run's windows. *)
let best_pct windows p = Stat.best ~lower:true (fun w -> Stat.percentile w p) windows

(* The best of four windows' p50: layer timings are read the way the
   end-to-end ones are. *)
let best_p50 v = Stat.best ~lower:true Stat.median (Stat.chunks 4 (Vec.to_array v))

(* Round-trip p50 of a ping: socket, select loop and write, no request
   work.  Taken on the idle daemon, right after warm-up. *)
let transport_us live =
  let lat = Vec.create () in
  for i = 1 to 1000 do
    let t0 = now () in
    ignore (control_request live (Printf.sprintf "{\"id\":\"p%d\",\"op\":\"ping\"}" i) : string);
    Vec.push lat (now () -. t0)
  done;
  1e6 *. best_p50 lat

type stats = {
  hits : float;
  misses : float;
  evictions : float;
  batch_mean : float;
  queue_wait_ms : float;
}

let parse_stats line =
  let json = match Json.parse line with Ok json -> json | Error _ -> Json.Null in
  let get path = Option.value (Spec.json_float json ("result" :: path)) ~default:0.0 in
  let answered = get [ "placed" ] +. get [ "timeouts" ] +. get [ "unplaceable" ] in
  {
    hits = get [ "cache"; "hits" ];
    misses = get [ "cache"; "misses" ];
    evictions = get [ "cache"; "evictions" ];
    batch_mean = (if get [ "batches" ] > 0.0 then answered /. get [ "batches" ] else 0.0);
    queue_wait_ms =
      (let c = get [ "queue_wait"; "count" ] in
       if c > 0.0 then 1e3 *. get [ "queue_wait"; "sum" ] /. c else 0.0);
  }

let stats_request = "{\"id\":\"stats\",\"op\":\"stats\"}"

let stats_layers s =
  [
    ("serve.cache_hit_ratio", s.hits /. Float.max 1.0 (s.hits +. s.misses));
    ("serve.cache_evictions", s.evictions);
    ("serve.batch_mean", s.batch_mean);
    ("serve.queue_wait_mean_ms", s.queue_wait_ms);
  ]

(* ------------------------------------------------------------------ *)
(* In-process replay: the same request lines through the public serve  *)
(* layers, each call timed (and, traced, wrapped in a span carrying    *)
(* the request index)                                                  *)
(* ------------------------------------------------------------------ *)

type replay = {
  parse : Vec.t;
  key : Vec.t;
  hit : Vec.t;
  miss : Vec.t;
  total_s : float;  (** the replayed stream, warm-up excluded *)
}

let replay ~warm_lines ~stream ~traced =
  let engine = Engine.create { Server.default_config with Server.jobs = 0 } in
  let r =
    {
      parse = Vec.create ();
      key = Vec.create ();
      hit = Vec.create ();
      miss = Vec.create ();
      total_s = 0.0;
    }
  in
  let one ~timed i line =
    let span name f =
      Trace.with_span ~cat:"bench" name ~args:(fun () -> [ ("req", string_of_int i) ]) f
    in
    let t0 = now () in
    let envelope = span "parse_line" (fun () -> Engine.parse_line engine line) in
    let t1 = now () in
    if timed then Vec.push r.parse (t1 -. t0);
    match envelope.Protocol.request with
    | Ok (Protocol.Place p) ->
      let t2 = now () in
      ignore
        (span "key" (fun () ->
             Protocol.key p.Protocol.options p.Protocol.env p.Protocol.circuit)
          : string);
      let t3 = now () in
      if timed then Vec.push r.key (t3 -. t2);
      let job = Engine.make_job engine ~id:envelope.Protocol.id ~arrival:(now ()) p in
      let t4 = now () in
      let response = span "dispatch" (fun () -> Engine.dispatch engine ~now:t4 [ job ]) in
      let t5 = now () in
      let cached = List.exists is_cached response in
      Vec.push (if cached then r.hit else r.miss) (t5 -. t4)
    | Ok _ | Error _ -> ()
  in
  if traced then begin
    Qcp_obs.Metrics.set_enabled true;
    Trace.start ~capacity:(1 lsl 17) ()
  end;
  List.iteri (fun i l -> one ~timed:false (-1 - i) l) warm_lines;
  (* Start both passes from the same heap state: the warm-up's garbage
     would otherwise bill the first pass's stream for its collection. *)
  Gc.compact ();
  let t0 = now () in
  Array.iteri (fun i l -> one ~timed:true i l) stream;
  let total_s = now () -. t0 in
  if traced then begin
    Trace.stop ();
    Qcp_obs.Metrics.set_enabled false
  end;
  { r with total_s }

(* Replay untraced, then traced; layer timings come from the traced
   replay, whose spans become the workload's Chrome trace. *)
let replay_layers (cfg : Spec.config) ~workload ~warm_lines ~stream =
  let plain = replay ~warm_lines ~stream ~traced:false in
  let traced = replay ~warm_lines ~stream ~traced:true in
  Qcp_obs.Export.write_trace_file
    (Filename.concat cfg.Spec.out_dir
       (workload ^ ".trace.json"))
    (Trace.events ());
  let or_zero f v = if Vec.length v = 0 then 0.0 else f v in
  ( traced.total_s /. plain.total_s,
    [
      ("serve.parse_us", 1e6 *. best_p50 traced.parse);
      ("serve.key_us", 1e6 *. best_p50 traced.key);
      ("serve.dispatch_hit_us", 1e6 *. or_zero best_p50 traced.hit);
      ( "serve.dispatch_miss_ms",
        1e3 *. or_zero (fun v -> Stat.median (Vec.to_array v)) traced.miss );
    ] )

(* ------------------------------------------------------------------ *)
(* serve-hit: closed loop over the warmed keys                         *)
(* ------------------------------------------------------------------ *)

(* One connection: with two, each round trip waits behind the other
   connection's request (the select loop dispatches them one at a time),
   so half of p50 would be queueing that no layer owns. *)
let run_hit (cfg : Spec.config) =
  let failures = ref [] in
  let note msg = failures := msg :: !failures in
  let hot = hot_bodies "serve-hit" in
  let live, setup_s =
    setup cfg ~clients:1 ~queue_cap:Server.default_config.Server.queue_cap ~hot ~note
  in
  let transport = if cfg.Spec.trace then transport_us live else 0.0 in
  let rng = Rng.create cfg.Spec.seed in
  let drawn = Vec.create () in
  let seconds = if cfg.Spec.smoke then 0.5 else cfg.Spec.seconds in
  let lat = Vec.create () and recv = Vec.create () in
  let runtime_sum = ref 0.0 in
  let answered = ref 0 in
  (* One request in flight; its response immediately sends the next
     until the window closes. *)
  let inflight = Array.make (Array.length live.conns) None in
  let seq = ref 0 in
  let send c =
    let k = Rng.int rng (Array.length hot) in
    Vec.push drawn (float_of_int k);
    let line = place_line (Printf.sprintf "h%d" !seq) hot.(k) in
    incr seq;
    inflight.(c) <- Some (k, now ());
    Conn.send live.conns.(c) line
  in
  let t_start = now () in
  let t_end = t_start +. seconds in
  Array.iteri (fun c _ -> send c) live.conns;
  let stalled = ref false in
  while (not !stalled) && Array.exists Option.is_some inflight do
    let before = !answered and t_before = now () in
    let t = Conn.pump (Array.to_list live.conns) ~deadline:(now () +. 30.0) in
    Array.iteri
      (fun c conn ->
        match Proc.Lines.take conn.Conn.lines with
        | None -> ()
        | Some line -> (
          match inflight.(c) with
          | None -> note ("unexpected response: " ^ line)
          | Some (k, sent) ->
            incr answered;
            Vec.push lat (t -. sent);
            Vec.push recv t;
            runtime_sum := !runtime_sum +. live.warm.(k).w_runtime;
            if string_field line "status" <> Some "ok" then note ("not ok: " ^ line)
            else if not (is_cached line) then note ("expected a cache hit: " ^ line)
            else if result_text line <> Some live.warm.(k).w_result then
              note (Printf.sprintf "hit bytes differ from warm-up for key %d" k);
            if t < t_end then send c else inflight.(c) <- None))
      live.conns;
    if !answered = before && now () -. t_before > 29.0 then begin
      note "daemon stopped answering";
      stalled := true
    end
  done;
  let t_stop = now () in
  let stats =
    if cfg.Spec.trace then Some (parse_stats (control_request live stats_request)) else None
  in
  let rest, heap = stop_live live in
  List.iter
    (fun (_, l) ->
      if string_field l "id" <> Some "shutdown" then note ("stray response: " ^ l))
    rest;
  if heap = None then note "daemon did not exit cleanly";
  let lat = Vec.to_array lat in
  (* Each timing is the best of eight windows of the run. *)
  let windows = Stat.windows ~t0:t_start ~t1:t_stop ~n:8 (Vec.to_array recv) lat in
  let width = (t_stop -. t_start) /. 8.0 in
  let p50 = 1e6 *. best_pct windows 50.0 in
  let e2e =
    [
      ("setup_s", setup_s);
      ("p50_us", p50);
      ( "req_per_s",
        Stat.best ~lower:false (fun w -> float_of_int (Array.length w) /. width) windows );
      ("placed_runtime", !runtime_sum /. float_of_int !answered);
      ("peak_heap_mb", Option.fold heap ~none:Float.nan ~some:(fun w -> w *. 8.0 /. 1e6));
    ]
  in
  let layers =
    match stats with
    | None -> []
    | Some s ->
      let warm_lines = Array.to_list (Array.mapi warm_line hot) in
      let drawn = Vec.to_array drawn in
      let n = Int.min (Array.length drawn) (if cfg.Spec.smoke then 500 else 10_000) in
      let stream =
        Array.init n (fun i -> place_line (Printf.sprintf "h%d" i) hot.(int_of_float drawn.(i)))
      in
      let overhead, timers = replay_layers cfg ~workload:"serve-hit" ~warm_lines ~stream in
      let timer name = List.assoc name timers in
      Spec.with_zero_layers
        (timers @ stats_layers s
        @ [
            ("serve.transport_us", transport);
            ( "serve.unattributed_us",
              p50 -. transport -. timer "serve.parse_us" -. timer "serve.dispatch_hit_us" );
            ("p90_us", 1e6 *. best_pct windows 90.0);
            ("p99_us", 1e6 *. best_pct windows 99.0);
            ("trace.overhead", overhead);
          ])
  in
  {
    Spec.attempted = Array.length hot + !answered;
    failed = List.length !failures;
    failures = List.rev !failures;
    values = e2e @ layers;
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed: open loop at fixed rates over hot and never-seen keys  *)
(* ------------------------------------------------------------------ *)

(* Instances the daemon has never seen: (environment, circuit,
   threshold, monomorphism limit) combinations of small paper circuits,
   each drawn at most once, and one in four an inline seeded .qc
   document. *)
let cold_pool () =
  let envs = [ "acetyl-chloride"; "trans-crotonic"; "boc-glycine"; "iron-complex"; "histidine" ] in
  let circuits = [ "qec3"; "qec5"; "grover3"; "adder2"; "phaseest"; "qft6"; "ghz8"; "cat10" ] in
  Array.of_list
    (List.concat_map
       (fun env_name ->
         let env = Instances.env_named env_name in
         List.concat_map
           (fun circuit_name ->
             let circuit = Instances.circuit_named circuit_name in
             List.filter_map
               (fun threshold ->
                 if Instances.placeable env circuit ~threshold then
                   Some (env_name, circuit_name, threshold)
                 else None)
               Instances.thresholds)
           circuits)
       envs)

let inline_circuit rng =
  let module G = Qcp_circuit.Gate in
  let qubits = 3 + Rng.int rng 4 in
  let gate () =
    if Rng.int rng 10 < 6 then
      let a = Rng.int rng qubits in
      let b = (a + 1 + Rng.int rng (qubits - 1)) mod qubits in
      if Rng.bool rng then G.cnot a b else G.zz a b 90.0
    else
      let q = Rng.int rng qubits in
      match Rng.int rng 3 with 0 -> G.h q | 1 -> G.rx q 90.0 | _ -> G.rz q 45.0
  in
  Qcp_circuit.Circuit.make ~qubits (List.init (6 + Rng.int rng 15) (fun _ -> gate ()))

let cold_body rng ~pool ~used =
  let rec draw () =
    let k = float_of_int (8 + Rng.int rng 92) in
    let b =
      if Rng.int rng 4 > 0 then
        let env, circuit, th = pool.(Rng.int rng (Array.length pool)) in
        body ~env ~circuit [ ("threshold", th); ("monomorphisms", k) ]
      else
        let env = [| "trans-crotonic"; "histidine" |].(Rng.int rng 2) in
        let th = List.nth Instances.thresholds (2 + Rng.int rng 4) in
        body ~env ~circuit:(Qcp_circuit.Qc_format.print (inline_circuit rng))
          [ ("threshold", th); ("monomorphisms", k) ]
    in
    if Hashtbl.mem used b then draw ()
    else begin
      Hashtbl.replace used b ();
      b
    end
  in
  draw ()

(* Zipf(1) cumulative weights over ranks 1..n. *)
let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf_draw rng cdf =
  let u = Rng.float rng 1.0 in
  let rec go i = if i >= Array.length cdf - 1 || u < cdf.(i) then i else go (i + 1) in
  go 0

type step = {
  rate : int;
  lat : Vec.t;  (** seconds from each request's due time to its response *)
  due : Vec.t;  (** each answered request's due time, parallel to [lat] *)
  recv : Vec.t;  (** each response's arrival time, parallel to [lat] *)
  mutable failed : int;
  mutable backlog_end : int;  (** unanswered requests when the last was sent *)
  mutable t_first : float;  (** the first request's due time *)
  mutable t_last : float;  (** one interval past the last request's *)
}

(* A step's latencies (by due time) or arrivals (by arrival time) in four
   equal windows of its schedule. *)
let step_windows step times values =
  Stat.windows ~t0:step.t_first ~t1:step.t_last ~n:4 (Vec.to_array times) values

(* What a request was: a warmed key (its index) or a cold instance. *)
type kind = Hot of int | Cold of string

let run_mixed (cfg : Spec.config) =
  let failures = ref [] in
  let note msg = failures := msg :: !failures in
  let hot = hot_bodies "serve-mixed" in
  (* A queue deep enough that the 1.5C step queues instead of refusing:
     the overload shows as latency and backlog, never as failures. *)
  let live, setup_s = setup cfg ~clients:2 ~queue_cap:1_000_000 ~hot ~note in
  (* The daemon's peak heap after warm-up.  Once the open loop runs, the
     peak follows how far the queue backs up, which follows the host's
     speed of the moment (50-61 MB at 0.25C, 200-330 MB past 1.5C). *)
  let heap = daemon_heap live.daemon in
  let transport = if cfg.Spec.trace then transport_us live else 0.0 in
  let rng = Rng.create cfg.Spec.seed in
  let used = Hashtbl.create 4096 in
  let pool = cold_pool () in
  let cdf = zipf_cdf (Array.length hot) in
  let step_s =
    if cfg.Spec.smoke then 0.2 else cfg.Spec.seconds /. float_of_int (List.length Spec.mixed_rates)
  in
  let pending : (string, float * int * kind * string) Hashtbl.t = Hashtbl.create 4096 in
  let runtime_sum = ref 0.0 and answered = ref 0 and sent = ref 0 in
  let late = Vec.create () in
  let reported_stream = ref [] in
  (* A reservoir of cold (request, runtime) pairs, re-placed in-process
     after the run. *)
  let reservoir = Array.make 24 None and cold_seen = ref 0 in
  let steps =
    Array.of_list
      (List.map
         (fun rate ->
           {
             rate;
             lat = Vec.create ();
             due = Vec.create ();
             recv = Vec.create ();
             failed = 0;
             backlog_end = 0;
             t_first = 0.0;
             t_last = 0.0;
           })
         Spec.mixed_rates)
  in
  let fail step msg =
    step.failed <- step.failed + 1;
    note msg
  in
  let conns = Array.to_list live.conns in
  let stats = ref None in
  let solves = Array.map (fun w -> [ w.w_result ]) live.warm in
  let unmatched_hits = ref [] in
  let handle t line =
    match string_field line "id" with
    | Some "stats" -> stats := Some line
    | Some id -> (
      match Hashtbl.find_opt pending id with
      | None -> ()  (* pings and the shutdown acknowledgement *)
      | Some (due, si, kind, request) -> (
        Hashtbl.remove pending id;
        let step = steps.(si) in
        incr answered;
        Vec.push step.lat (t -. due);
        Vec.push step.due due;
        Vec.push step.recv t;
        match ok_result line with
        | Some (result, rt) -> (
          runtime_sum := !runtime_sum +. rt;
          match kind with
          | Hot k ->
            (* An evicted hot key is solved again, and its later hits
               carry the new solve's bytes (wall-clock stats differ), so
               a hit must match one of the key's solves; the runtime must
               match always. *)
            if rt <> live.warm.(k).w_runtime then
              fail step (Printf.sprintf "hot key %d: runtime differs from warm-up" k)
            else if not (is_cached line) then solves.(k) <- result :: solves.(k)
            else if not (List.mem result solves.(k)) then
              unmatched_hits := (si, k, result) :: !unmatched_hits
          | Cold _ ->
            incr cold_seen;
            let slot =
              if !cold_seen <= Array.length reservoir then !cold_seen - 1
              else Rng.int rng !cold_seen
            in
            if slot < Array.length reservoir then
              reservoir.(slot) <- Some (request, Option.get (runtime_text result)))
        | None -> fail step ("not ok: " ^ line)))
    | None -> note ("unreadable response: " ^ line)
  in
  let absorb t =
    List.iter
      (fun c ->
        let rec drain () =
          match Proc.Lines.take c.Conn.lines with
          | Some l -> handle t l; drain ()
          | None -> ()
        in
        drain ())
      conns
  in
  let n_steps = Array.length steps in
  Array.iteri
    (fun si step ->
      let rate = float_of_int step.rate in
      let n = Int.max 1 (int_of_float (rate *. step_s)) in
      let t0 = now () +. 0.001 in
      let due k = t0 +. (float_of_int k /. rate) in
      step.t_first <- t0;
      step.t_last <- due n;
      let next = ref 0 in
      while !next < n do
        let t = now () in
        while !next < n && due !next <= t do
          let k = !next in
          let kind, b =
            if Rng.int rng 5 > 0 then
              let i = zipf_draw rng cdf in
              (Hot i, hot.(i))
            else
              let b = cold_body rng ~pool ~used in
              (Cold b, b)
          in
          let id = Printf.sprintf "s%d-%d" si k in
          let line = place_line id b in
          Hashtbl.replace pending id (due k, si, kind, line);
          if step.rate = Spec.mixed_reported_rate then reported_stream := line :: !reported_stream;
          Conn.send live.conns.(k mod 2) line;
          Vec.push late (now () -. due k);
          incr sent;
          incr next
        done;
        let wake = if !next < n then due !next else now () in
        absorb (Conn.pump conns ~deadline:wake)
      done;
      step.backlog_end <- Hashtbl.length pending;
      if si < n_steps - 1 then begin
        (* Between steps, let the backlog clear before the next rate
           starts.  The daemon's loop sleeps in select while no socket is
           readable, so a ping every 5 ms keeps it dispatching. *)
        let deadline = now () +. 60.0 in
        let pings = ref 0 and last_ping = ref 0.0 in
        while Hashtbl.length pending > 0 && now () < deadline do
          if now () -. !last_ping >= 0.005 then begin
            incr pings;
            last_ping := now ();
            Conn.send live.conns.(0) (Printf.sprintf "{\"id\":\"g%d\",\"op\":\"ping\"}" !pings)
          end;
          absorb (Conn.pump conns ~deadline:(!last_ping +. 0.005))
        done
      end)
    steps;
  (* Read the counters while the last step's backlog is still queued (a
     stats request is answered inline), then let the shutdown drain it. *)
  Conn.send live.conns.(0) stats_request;
  let deadline = now () +. 30.0 in
  while !stats = None && now () < deadline do
    absorb (Conn.pump conns ~deadline:(now () +. 0.05))
  done;
  let rest, exit_heap = stop_live live in
  List.iter (fun (t, l) -> handle t l) rest;
  if exit_heap = None then note "daemon did not exit cleanly";
  Hashtbl.iter (fun id _ -> note ("never answered: " ^ id)) pending;
  List.iter
    (fun (si, k, result) ->
      if not (List.mem result solves.(k)) then
        fail steps.(si) (Printf.sprintf "hot key %d: hit bytes match none of its solves" k))
    !unmatched_hits;
  (* Re-place the sampled cold requests in-process: same runtime. *)
  Array.iter
    (function
      | None -> ()
      | Some (request, runtime) -> (
        match (Protocol.parse_line request).Protocol.request with
        | Ok (Protocol.Place p) -> (
          match Qcp.Placer.place p.Protocol.options p.Protocol.env p.Protocol.circuit with
          | Qcp.Placer.Placed prog
            when Json.to_string (Json.Num (Qcp.Placer.runtime prog)) = runtime -> ()
          | _ -> note ("re-placed cold request disagrees: " ^ request))
        | _ -> note ("cold request does not parse: " ^ request)))
    reservoir;
  let us v = 1e6 *. v in
  let pct step p = Stat.percentile (Vec.to_array step.lat) p in
  let reported =
    match Array.find_opt (fun s -> s.rate = Spec.mixed_reported_rate) steps with
    | Some s -> s
    | None -> steps.(0)
  in
  let last = steps.(n_steps - 1) in
  let meets_slo step =
    step.failed = 0
    && pct step 99.0 <= 0.020
    && float_of_int step.backlog_end <= 16.0 +. (float_of_int step.rate *. 0.020)
  in
  let goodput =
    Array.fold_left (fun acc s -> if meets_slo s then float_of_int s.rate else acc) 0.0 steps
  in
  (* Each timing is the best of four windows of its step: latency at the
     0.25C step, and the saturation throughput as responses per second
     while the 1.5C step runs. *)
  let reported_windows = step_windows reported reported.due (Vec.to_array reported.lat) in
  let last_windows = step_windows last last.recv (Vec.to_array last.recv) in
  let e2e =
    [
      ("setup_s", setup_s);
      ("p50_us", us (best_pct reported_windows 50.0));
      ( "req_per_s",
        Stat.best ~lower:false
          (fun w -> float_of_int (Array.length w) *. 4.0 /. (last.t_last -. last.t_first))
          last_windows );
      ("placed_runtime", !runtime_sum /. float_of_int (Int.max 1 !answered));
      ("peak_heap_mb", Option.fold heap ~none:Float.nan ~some:(fun w -> w *. 8.0 /. 1e6));
    ]
  in
  let layers =
    if not cfg.Spec.trace then []
    else begin
      let s =
        match !stats with
        | Some line -> parse_stats line
        | None ->
          note "stats request unanswered";
          parse_stats ""
      in
      let warm_lines = Array.to_list (Array.mapi warm_line hot) in
      let stream = Array.of_list (List.rev !reported_stream) in
      let n = Int.min (Array.length stream) (if cfg.Spec.smoke then 200 else 4000) in
      let stream = Array.sub stream 0 n in
      let overhead, timers = replay_layers cfg ~workload:"serve-mixed" ~warm_lines ~stream in
      Spec.with_zero_layers
        (timers @ stats_layers s
        @ List.concat_map
            (fun st ->
              [
                (Spec.step_name st.rate "p50_us", us (pct st 50.0));
                (Spec.step_name st.rate "p99_us", us (pct st 99.0));
                (Spec.step_name st.rate "failed", float_of_int st.failed);
              ])
            (Array.to_list steps)
        @ [
            ("serve.transport_us", transport);
            ("serve.goodput_rps", goodput);
            ("p90_us", us (best_pct reported_windows 90.0));
            ("p99_us", us (best_pct reported_windows 99.0));
            ("loadgen.late_p99_ms", 1e3 *. Stat.percentile (Vec.to_array late) 99.0);
            ("trace.overhead", overhead);
          ])
    end
  in
  {
    Spec.attempted = Array.length hot + !sent;
    failed = List.length !failures;
    failures = List.rev !failures;
    values = e2e @ layers;
  }

let run cfg = function
  | "serve-hit" -> run_hit cfg
  | "serve-mixed" -> run_mixed cfg
  | w -> invalid_arg ("not a serve workload: " ^ w)
