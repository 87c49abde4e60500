module Json = Qcp_util.Json
module Clock = Qcp_util.Clock
module Metrics = Qcp_obs.Metrics
module Trace = Qcp_obs.Trace
module Log = Qcp_obs.Log
module Flight = Qcp_obs.Flight
module Placer = Qcp.Placer
module Options = Qcp.Options

type config = {
  socket_path : string option;
  port : int option;
  host : string;
  jobs : int;
  cache_cap : int;
  max_batch : int;
  queue_cap : int;
  default_deadline : float option;
  max_requests : int;
  telemetry : bool;
  install_signals : bool;
  log_level : Log.level option;
  log_file : string option;
  flight_cap : int;
  slow_dump : float option;
  dump_dir : string;
}

let default_config =
  {
    socket_path = None;
    port = None;
    host = "127.0.0.1";
    jobs = 0;
    cache_cap = 512;
    max_batch = 16;
    queue_cap = 256;
    default_deadline = None;
    max_requests = 0;
    telemetry = false;
    install_signals = true;
    log_level = None;
    log_file = None;
    flight_cap = 0;
    slow_dump = None;
    dump_dir = ".";
  }

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

module Engine = struct
  (* Bounded FIFO intern table: spec string -> resolved value.  Interning
     makes repeated specs share one physical environment / circuit, which
     is what keeps the per-env adjacency memo and the per-graph route
     registries of {!Qcp.Score_cache} hot across requests.  FIFO keeps
     eviction deterministic (same reasoning as the shared route tables). *)
  type 'a intern = {
    in_cap : int;
    in_table : (string, 'a) Hashtbl.t;
    in_order : string Queue.t;
  }

  let intern_create cap =
    { in_cap = cap; in_table = Hashtbl.create 32; in_order = Queue.create () }

  let intern it resolve spec =
    match Hashtbl.find_opt it.in_table spec with
    | Some v -> Ok v
    | None -> (
      match resolve spec with
      | Error _ as e -> e
      | Ok v ->
        if Hashtbl.length it.in_table >= it.in_cap then (
          match Queue.take_opt it.in_order with
          | Some oldest -> Hashtbl.remove it.in_table oldest
          | None -> ());
        Hashtbl.add it.in_table spec v;
        Queue.add spec it.in_order;
        Ok v)

  type counters = {
    mutable c_requests : int;  (* request lines parsed *)
    mutable c_placed : int;  (* "ok" responses *)
    mutable c_errors : int;
    mutable c_timeouts : int;
    mutable c_shed : int;  (* of the timeouts, dropped at dispatch *)
    mutable c_unplaceable : int;
    mutable c_overloaded : int;
    mutable c_batches : int;
    mutable c_max_batch : int;
    qw_counts : int array;
    mutable qw_sum : float;
    mutable qw_count : int;
  }

  type t = {
    config : config;
    result_cache : Result_cache.t;
    envs : Qcp_env.Environment.t intern;
    circuits : Qcp_circuit.Circuit.t intern;
    places : Protocol.place intern;
        (* spec key -> resolved place (see {!Protocol.parse_line}) *)
    counters : counters;
    flight : Flight.t option;
    mutable seq : int;  (* next request sequence number *)
    started : float;
  }

  let qw_bounds = Metrics.default_time_bounds

  let create config =
    {
      config;
      result_cache = Result_cache.create config.cache_cap;
      envs = intern_create 128;
      circuits = intern_create 128;
      places = intern_create 128;
      counters =
        {
          c_requests = 0;
          c_placed = 0;
          c_errors = 0;
          c_timeouts = 0;
          c_shed = 0;
          c_unplaceable = 0;
          c_overloaded = 0;
          c_batches = 0;
          c_max_batch = 0;
          qw_counts = Array.make (Array.length qw_bounds + 1) 0;
          qw_sum = 0.0;
          qw_count = 0;
        };
      flight =
        (if config.flight_cap > 0 then
           Some (Flight.create ~capacity:config.flight_cap)
         else None);
      seq = 0;
      started = Clock.now ();
    }

  let cache t = t.result_cache

  let flight t = t.flight

  let requests_served t =
    t.counters.c_placed + t.counters.c_timeouts + t.counters.c_unplaceable

  let parse_line t line =
    t.counters.c_requests <- t.counters.c_requests + 1;
    Protocol.parse_line
      ~resolve_env:(intern t.envs Protocol.resolve_env)
      ~resolve_circuit:(intern t.circuits Protocol.resolve_circuit)
      ~memo:(intern t.places) line

  type job = {
    j_seq : int;
    j_id : string;
    j_arrival : float;
    j_place : Protocol.place;
  }

  let make_job t ~id ~arrival place =
    let seq = t.seq in
    t.seq <- t.seq + 1;
    { j_seq = seq; j_id = id; j_arrival = arrival; j_place = place }

  let observe_wait c seconds =
    let i = Metrics.bucket_index qw_bounds seconds in
    c.qw_counts.(i) <- c.qw_counts.(i) + 1;
    c.qw_sum <- c.qw_sum +. seconds;
    c.qw_count <- c.qw_count + 1

  (* A request's absolute timeout budget: its own deadline, or the server
     default, counted from arrival. *)
  let budget config j =
    match j.j_place.Protocol.deadline with
    | Some b -> j.j_arrival +. b
    | None -> (
      match config.default_deadline with
      | Some b -> j.j_arrival +. b
      | None -> infinity)

  type assignment =
    | Shed  (* budget expired before dispatch: answered without solving *)
    | Hit of string  (* cached result text *)
    | Solve of int * bool  (* unique-solve index, first occurrence? *)

  let dispatch t ~now jobs =
    let c = t.counters in
    let jobs = Array.of_list jobs in
    let n = Array.length jobs in
    c.c_batches <- c.c_batches + 1;
    if n > c.c_max_batch then c.c_max_batch <- n;
    Array.iter (fun j -> observe_wait c (Float.max 0.0 (now -. j.j_arrival))) jobs;
    (* Shed check, then lookup + dedup.  A job whose budget expired while
       it queued is answered immediately — solving it would waste batch
       capacity on a response the client already gave up on, and the
       placer would only abort it at the next pipeline stage anyway. *)
    let unique = ref [] and unique_count = ref 0 in
    let index_of_key = Hashtbl.create 16 in
    let assignments =
      Array.map
        (fun j ->
          if budget t.config j <= now then Shed
          else
            let key = j.j_place.Protocol.cache_key in
            match Result_cache.find t.result_cache key with
            | Some text -> Hit text
            | None -> (
              match Hashtbl.find_opt index_of_key key with
              | Some u -> Solve (u, false)
              | None ->
                let u = !unique_count in
                incr unique_count;
                Hashtbl.add index_of_key key u;
                unique := (j, key) :: !unique;
                Solve (u, true)))
        jobs
    in
    let t_lookup = Clock.now () in
    let unique_keys = Array.of_list (List.rev_map snd !unique) in
    let unique = Array.of_list (List.rev_map fst !unique) in
    (* Solve the misses under a per-batch trace capture when the flight
       recorder is armed (and nobody else owns the tracer): the spans land
       on the batch's first solved record, dumpable while the daemon keeps
       running.  Tracing also starts the placer's phase clocks, so flight
       records carry a phase breakdown even without --telemetry. *)
    let capture =
      t.flight <> None && Array.length unique > 0 && not (Trace.enabled ())
    in
    let trace_abs = ref 0.0 in
    if capture then begin
      Trace.start ~capacity:4096 ();
      trace_abs := Clock.now ()
    end;
    (* Every miss solves in one batch with per-job absolute deadlines;
       portfolio requests run the reduce inside it. *)
    let outcomes =
      Array.of_list
        (Qcp.Portfolio.place_batch ~jobs:t.config.jobs
           ~deadline_of:(fun u -> budget t.config unique.(u))
           (Array.to_list
              (Array.map
                 (fun j ->
                   ( j.j_place.Protocol.options,
                     j.j_place.Protocol.env,
                     j.j_place.Protocol.circuit ))
                 unique)))
    in
    let t_solve = Clock.now () in
    let spans =
      if capture then begin
        Trace.stop ();
        (* Rebase span timestamps from the capture epoch onto the engine
           timeline (seconds since engine start), matching the flight
           records' arrival stamps. *)
        let off = !trace_abs -. t.started in
        List.map
          (fun (e : Trace.event) -> { e with Trace.ts = e.Trace.ts +. off })
          (Trace.events ())
      end
      else []
    in
    (* Render unique results once; successful ones get stored. *)
    let rendered =
      Array.mapi
        (fun u outcome ->
          let j = unique.(u) in
          let p = j.j_place in
          match outcome with
          | Placer.Placed program ->
            let text =
              Json.to_string
                (Protocol.result_of_program ~telemetry:p.Protocol.telemetry
                   program)
            in
            Result_cache.add t.result_cache unique_keys.(u) text;
            ("ok", Some text, None)
          | Placer.Unplaceable msg when msg = Placer.msg_deadline ->
            ("timeout", None, Some msg)
          | Placer.Unplaceable msg -> ("unplaceable", None, Some msg))
        outcomes
    in
    let phases_of =
      Array.map
        (function
          | Placer.Placed program ->
            List.filter (fun (_, s) -> s > 0.0) (Placer.phase_seconds program)
          | Placer.Unplaceable _ -> [])
        outcomes
    in
    let count_status = function
      | "ok" -> c.c_placed <- c.c_placed + 1
      | "timeout" -> c.c_timeouts <- c.c_timeouts + 1
      | _ -> c.c_unplaceable <- c.c_unplaceable + 1
    in
    let spans_left = ref spans in
    let slowest = ref 0.0 in
    let trouble = ref false in
    let responses =
      Array.to_list
        (Array.mapi
           (fun i j ->
             let digest = j.j_place.Protocol.digest in
             let queue_wait = Float.max 0.0 (now -. j.j_arrival) in
             let status, cached, shed, wall, result, error, phases =
               match assignments.(i) with
               | Shed ->
                 c.c_timeouts <- c.c_timeouts + 1;
                 c.c_shed <- c.c_shed + 1;
                 ( "timeout", false, true, 0.0, None,
                   Some "deadline expired before dispatch", [] )
               | Hit text ->
                 c.c_placed <- c.c_placed + 1;
                 ("ok", true, false, t_lookup -. now, Some text, None, [])
               | Solve (u, first) ->
                 let status, result, error = rendered.(u) in
                 count_status status;
                 ( status,
                   (not first) && status = "ok",
                   false, t_solve -. now, result, error, phases_of.(u) )
             in
             (match t.flight with
             | None -> ()
             | Some fl ->
               let f_spans =
                 match assignments.(i) with
                 | Solve (_, true) ->
                   let s = !spans_left in
                   spans_left := [];
                   s
                 | Shed | Hit _ | Solve (_, false) -> []
               in
               Flight.record fl
                 {
                   Flight.f_seq = j.j_seq;
                   f_id = j.j_id;
                   f_op = "place";
                   f_status = status;
                   f_cached = cached;
                   f_shed = shed;
                   f_key = digest;
                   f_arrival = j.j_arrival -. t.started;
                   f_queue_wait = queue_wait;
                   f_wall = wall;
                   f_phases = phases;
                   f_spans;
                 });
             if shed then
               Log.info "shed" (fun () ->
                   [
                     ("req_seq", Log.Int j.j_seq);
                     ("id", Log.Str j.j_id);
                     ("key", Log.Str digest);
                     ("queue_wait_s", Log.Num queue_wait);
                   ]);
             Log.info "request" (fun () ->
                 [
                   ("req_seq", Log.Int j.j_seq);
                   ("id", Log.Str j.j_id);
                   ("op", Log.Str "place");
                   ("key", Log.Str digest);
                   ("status", Log.Str status);
                   ("cached", Log.Bool cached);
                   ("shed", Log.Bool shed);
                   ("queue_wait_s", Log.Num queue_wait);
                   ("wall_s", Log.Num wall);
                 ]
                 @
                 if phases = [] then []
                 else
                   [
                     ( "phases",
                       Log.Obj
                         (List.map (fun (name, s) -> (name, Log.Num s)) phases)
                     );
                   ]);
             slowest := Float.max !slowest (queue_wait +. wall);
             if status <> "ok" then trouble := true;
             Protocol.response ~id:j.j_id ~status ~cached ~digest ~queue_wait
               ~wall ?result ?error ())
           jobs)
    in
    (match (t.flight, t.config.slow_dump) with
    | Some fl, Some threshold when !slowest > threshold || !trouble ->
      (* At most one dump per dispatch: the whole ring goes into one file
         named by the batch counter. *)
      let path =
        Filename.concat t.config.dump_dir
          (Printf.sprintf "qcp-flight-%06d.json" c.c_batches)
      in
      (try
         Flight.dump_file path fl;
         Log.warn "flight-dump" (fun () ->
             [
               ("path", Log.Str path);
               ("slowest_s", Log.Num !slowest);
               ("records", Log.Int (Flight.length fl));
             ])
       with Sys_error msg ->
         Log.warn "flight-dump-failed" (fun () -> [ ("error", Log.Str msg) ]))
    | _ -> ());
    responses

  let stats_json t =
    let c = t.counters in
    let num v = Json.Num (float_of_int v) in
    let stats =
      Json.Obj
        [
          ("uptime_s", Json.Num (Clock.now () -. t.started));
          ("requests", num c.c_requests);
          ("placed", num c.c_placed);
          ("errors", num c.c_errors);
          ("timeouts", num c.c_timeouts);
          ("shed", num c.c_shed);
          ("unplaceable", num c.c_unplaceable);
          ("overloaded", num c.c_overloaded);
          ("batches", num c.c_batches);
          ("max_batch", num c.c_max_batch);
          ( "cache",
            Json.Obj
              [
                ("entries", num (Result_cache.length t.result_cache));
                ("capacity", num (Result_cache.capacity t.result_cache));
                ("hits", num (Result_cache.hits t.result_cache));
                ("misses", num (Result_cache.misses t.result_cache));
                ("evictions", num (Result_cache.evictions t.result_cache));
              ] );
          ( "queue_wait",
            Json.Obj
              [
                ( "bounds",
                  Json.Arr
                    (Array.to_list
                       (Array.map (fun b -> Json.Num b) qw_bounds)) );
                ( "counts",
                  Json.Arr (Array.to_list (Array.map num c.qw_counts)) );
                ("sum", Json.Num c.qw_sum);
                ("count", num c.qw_count);
              ] );
        ]
    in
    Json.to_string stats

  (* The engine's counters as registry-style series (the [serve.*]
     namespace), merged with the process-global registry — one snapshot
     feeding both the Prometheus exposition and anything else that walks
     {!Metrics.snapshot} shapes. *)
  let metrics_snapshot t =
    let c = t.counters in
    let g v = Metrics.Gauge v in
    let serve =
      [
        ("serve.batch_size_max", g (float_of_int c.c_max_batch));
        ("serve.batches", Metrics.Counter c.c_batches);
        ( "serve.cache.capacity",
          g (float_of_int (Result_cache.capacity t.result_cache)) );
        ( "serve.cache.entries",
          g (float_of_int (Result_cache.length t.result_cache)) );
        ("serve.cache.evictions", Metrics.Counter (Result_cache.evictions t.result_cache));
        ("serve.cache.hits", Metrics.Counter (Result_cache.hits t.result_cache));
        ("serve.cache.misses", Metrics.Counter (Result_cache.misses t.result_cache));
        ( "serve.queue_wait_seconds",
          Metrics.Histogram
            {
              bounds = qw_bounds;
              counts = Array.copy c.qw_counts;
              sum = c.qw_sum;
              count = c.qw_count;
            } );
        ("serve.requests", Metrics.Counter c.c_requests);
        ("serve.responses.error", Metrics.Counter c.c_errors);
        ("serve.responses.ok", Metrics.Counter c.c_placed);
        ("serve.responses.overloaded", Metrics.Counter c.c_overloaded);
        ("serve.responses.shed", Metrics.Counter c.c_shed);
        ("serve.responses.timeout", Metrics.Counter c.c_timeouts);
        ("serve.responses.unplaceable", Metrics.Counter c.c_unplaceable);
        ("serve.uptime_seconds", g (Clock.now () -. t.started));
      ]
    in
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (serve @ Metrics.snapshot Metrics.global)

  let stats_prometheus t =
    let buf = Buffer.create 4096 in
    Qcp_obs.Export.prometheus buf (metrics_snapshot t);
    Buffer.contents buf

  (* The wire protocol is line-delimited: a spliced result must not carry
     raw newlines.  Structural whitespace is the only place the trace
     renderer emits them (string content is escaped), so dropping newline
     bytes yields the same JSON document on one line. *)
  let compact text = String.concat "" (String.split_on_char '\n' text)

  let control t ~id request =
    match request with
    | Protocol.Ping ->
      Log.debug "control" (fun () ->
          [ ("op", Log.Str "ping"); ("id", Log.Str id) ]);
      Some (Protocol.response ~id ~status:"ok" ())
    | Protocol.Stats fmt ->
      Log.debug "control" (fun () ->
          [ ("op", Log.Str "stats"); ("id", Log.Str id) ]);
      let result =
        match fmt with
        | Protocol.Stats_json -> stats_json t
        | Protocol.Stats_prometheus ->
          Json.to_string (Json.Str (stats_prometheus t))
      in
      Some (Protocol.response ~id ~status:"ok" ~result ())
    | Protocol.Dump -> (
      Log.debug "control" (fun () ->
          [ ("op", Log.Str "dump"); ("id", Log.Str id) ]);
      match t.flight with
      | None ->
        Some
          (Protocol.response ~id ~status:"error"
             ~error:"flight recorder disabled (qcp serve --flight N)" ())
      | Some fl ->
        let buf = Buffer.create 65536 in
        Flight.dump buf fl;
        Some
          (Protocol.response ~id ~status:"ok"
             ~result:(compact (Buffer.contents buf))
             ()))
    | Protocol.Place _ | Protocol.Shutdown -> None

  let count_error t = t.counters.c_errors <- t.counters.c_errors + 1

  let count_overloaded t =
    t.counters.c_overloaded <- t.counters.c_overloaded + 1
end

(* ------------------------------------------------------------------ *)
(* Socket loop                                                         *)
(* ------------------------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* the unterminated tail of the bytes received *)
  mutable alive : bool;
}

let write_all client line =
  let data = line ^ "\n" in
  let len = String.length data in
  let pos = ref 0 in
  try
    while !pos < len do
      pos := !pos + Unix.write_substring client.fd data !pos (len - !pos)
    done
  with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> client.alive <- false

(* Whitespace as [String.trim] sees it. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec blank_bytes b i stop =
  i >= stop || (is_space (Bytes.unsafe_get b i) && blank_bytes b (i + 1) stop)

let blank_buffer buf =
  let rec from i =
    i >= Buffer.length buf || (is_space (Buffer.nth buf i) && from (i + 1))
  in
  from 0

(* Split the complete lines out of [n] freshly read bytes of [chunk],
   which continue the client's unterminated tail [buf]; the new tail is
   left in [buf].  Only the new bytes are searched for newlines, a line
   is copied once, when it completes, and blank lines are dropped without
   being copied. *)
let take_lines buf chunk n =
  let lines = ref [] and start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get chunk i = '\n' then begin
      if not (blank_buffer buf && blank_bytes chunk !start i) then
        lines :=
          (if Buffer.length buf = 0 then
             Bytes.sub_string chunk !start (i - !start)
           else begin
             Buffer.add_subbytes buf chunk !start (i - !start);
             Buffer.contents buf
           end)
          :: !lines;
      Buffer.clear buf;
      start := i + 1
    end
  done;
  Buffer.add_subbytes buf chunk !start (n - !start);
  List.rev !lines

type queued = {
  q_client : client;
  q_job : Engine.job;
}

let listeners config =
  let unix_listener path =
    (* A stale socket file from a crashed daemon would make bind fail;
       connect-probing it is racy, so takeover is explicit: unlink only
       what is a socket. *)
    (try
       if (Unix.stat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
     with Unix.Unix_error (ENOENT, _, _) -> ());
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  in
  let tcp_listener port =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string config.host, port));
    Unix.listen fd 64;
    fd
  in
  let fds =
    Option.to_list (Option.map unix_listener config.socket_path)
    @ Option.to_list (Option.map tcp_listener config.port)
  in
  if fds = [] then
    invalid_arg "Server.serve: config names no listener (socket_path or port)";
  fds

let serve config =
  let engine = Engine.create config in
  if config.telemetry then Metrics.set_enabled true;
  (* Arm the structured logger.  The previous level is restored on drain
     so a daemon hosted inside a test or bench domain leaves the
     process-global logger as it found it. *)
  let prev_level = Log.level () in
  Option.iter (fun path -> Log.set_sink (Log.file_sink path)) config.log_file;
  Log.set_level config.log_level;
  let listening = listeners config in
  Log.info "listening" (fun () ->
      Option.to_list
        (Option.map (fun p -> ("socket", Log.Str p)) config.socket_path)
      @ Option.to_list (Option.map (fun p -> ("port", Log.Int p)) config.port)
      @ [
          ("jobs", Log.Int config.jobs);
          ("cache_cap", Log.Int config.cache_cap);
          ("max_batch", Log.Int config.max_batch);
          ("queue_cap", Log.Int config.queue_cap);
          ("flight_cap", Log.Int config.flight_cap);
          ("telemetry", Log.Bool config.telemetry);
        ]);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let stop = ref false in
  if config.install_signals then begin
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler
  end;
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  let queue : queued Queue.t = Queue.create () in
  (* One receive buffer for every read: each read's bytes are copied into
     the client's buffer before the next read.  A fresh 64 KiB chunk per
     read made the heap peak depend on how requests happened to split
     into reads. *)
  let chunk = Bytes.create 65536 in
  let drop client =
    client.alive <- false;
    Hashtbl.remove clients client.fd;
    (try Unix.close client.fd with Unix.Unix_error _ -> ());
    Log.debug "client-disconnect" (fun () -> [])
  in
  let drain reason =
    if not !stop then begin
      stop := true;
      Log.info "drain" (fun () ->
          [
            ("reason", Log.Str reason);
            ("queued", Log.Int (Queue.length queue));
          ])
    end
  in
  let handle_line client line =
    let envelope = Engine.parse_line engine line in
    let id = envelope.Protocol.id in
    match envelope.Protocol.request with
    | Error msg ->
      Engine.count_error engine;
      Log.warn "bad-request" (fun () ->
          [ ("id", Log.Str id); ("error", Log.Str msg) ]);
      write_all client (Protocol.response ~id ~status:"error" ~error:msg ())
    | Ok Protocol.Shutdown ->
      drain "shutdown-request";
      write_all client (Protocol.response ~id ~status:"ok" ())
    | Ok ((Protocol.Ping | Protocol.Stats _ | Protocol.Dump) as req) ->
      Option.iter (write_all client) (Engine.control engine ~id req)
    | Ok (Protocol.Place place) ->
      if !stop then
        write_all client (Protocol.response ~id ~status:"shutting-down" ())
      else if Queue.length queue >= config.queue_cap then begin
        Engine.count_overloaded engine;
        Log.warn "overloaded" (fun () ->
            [ ("id", Log.Str id); ("queued", Log.Int (Queue.length queue)) ]);
        write_all client
          (Protocol.response ~id ~status:"overloaded"
             ~error:"request queue is full" ())
      end
      else
        Queue.add
          {
            q_client = client;
            q_job = Engine.make_job engine ~id ~arrival:(Clock.now ()) place;
          }
          queue
  in
  let dispatch_some () =
    let batch = ref [] in
    while Queue.length queue > 0 && List.length !batch < config.max_batch do
      batch := Queue.pop queue :: !batch
    done;
    let batch = List.rev !batch in
    if batch <> [] then begin
      Log.debug "dispatch" (fun () ->
          [
            ("batch", Log.Int (List.length batch));
            ("queued", Log.Int (Queue.length queue));
          ]);
      let responses =
        Engine.dispatch engine ~now:(Clock.now ())
          (List.map (fun q -> q.q_job) batch)
      in
      List.iter2
        (fun q response -> if q.q_client.alive then write_all q.q_client response)
        batch responses
    end
  in
  let budget_exhausted () =
    config.max_requests > 0
    && Engine.requests_served engine
       + Queue.length queue >= config.max_requests
  in
  while not (!stop && Queue.is_empty queue) do
    if !stop then
      (* Draining: no new work, just answer what is queued. *)
      dispatch_some ()
    else begin
      let fds =
        listening @ Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []
      in
      (* With requests still queued (a backlog past [max_batch]) only poll
         the sockets, so the next batch dispatches at once. *)
      let timeout = if Queue.is_empty queue then 0.2 else 0.0 in
      let readable, _, _ =
        try Unix.select fds [] [] timeout
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if List.mem fd listening then begin
            match (try Some (Unix.accept fd) with Unix.Unix_error _ -> None) with
            | Some (cfd, _) ->
              Log.debug "client-connect" (fun () -> []);
              Hashtbl.replace clients cfd
                { fd = cfd; buf = Buffer.create 256; alive = true }
            | None -> ()
          end
          else
            match Hashtbl.find_opt clients fd with
            | None -> ()
            | Some client -> (
              match
                try Unix.read fd chunk 0 (Bytes.length chunk)
                with Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> 0
              with
              | 0 -> drop client
              | n ->
                List.iter (handle_line client) (take_lines client.buf chunk n)))
        readable;
      dispatch_some ();
      if budget_exhausted () then drain "max-requests"
    end
  done;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listening;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    clients;
  Option.iter
    (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
    config.socket_path;
  Log.info "exit" (fun () ->
      [ ("stats", Log.Str (Engine.stats_json engine)) ]);
  Log.set_level prev_level;
  if config.log_file <> None then Log.set_sink Log.stderr_sink
