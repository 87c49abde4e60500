(* Serve-side observability: the structured logger's line-JSON contract,
   the access log, the stats/metrics surfaces (JSON and Prometheus), the
   flight recorder, and deadline shedding.

   The overriding contract is that none of it is semantic: an armed
   daemon (logging, flight recorder, telemetry) must produce the same
   response bytes a quiet daemon produces, wall-clock fields aside. *)

module Json = Qcp_util.Json
module Log = Qcp_obs.Log
module Flight = Qcp_obs.Flight
module Trace = Qcp_obs.Trace
module Metrics = Qcp_obs.Metrics
module Export = Qcp_obs.Export
module Protocol = Qcp_serve.Protocol
module Server = Qcp_serve.Server
module Engine = Server.Engine

(* Every test that arms the process-global logger runs under this guard:
   whatever happens, the logger is disarmed and back on stderr after. *)
let with_log_capture level f =
  let buf = Buffer.create 1024 in
  Fun.protect
    ~finally:(fun () -> Log.reset ())
    (fun () ->
      Log.set_sink (Log.buffer_sink buf);
      Log.set_level level;
      f ();
      Log.set_level None;
      Buffer.contents buf)

let log_lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

let parse_exn line =
  match Json.parse line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "log line %s: %s" line msg

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S in %s" name (Json.to_string json)

let str_exn name json =
  match Json.to_str (member_exn name json) with
  | Some s -> s
  | None -> Alcotest.failf "member %S is not a string" name

(* ------------------------------------------------------------------ *)
(* Logger: line-JSON round trip, leveling, sequencing                  *)
(* ------------------------------------------------------------------ *)

let test_log_roundtrip () =
  let text =
    with_log_capture (Some Log.Debug) (fun () ->
        Log.info "hello" (fun () ->
            [
              ("who", Log.Str "wor\"ld\n");
              ("n", Log.Int 42);
              ("x", Log.Num 0.25);
              ("flag", Log.Bool true);
              ("nested", Log.Obj [ ("a", Log.Num 1.0) ]);
            ]);
        Log.debug "fine" (fun () -> []);
        Log.error "boom" (fun () -> [ ("code", Log.Int 7) ]))
  in
  let lines = log_lines text in
  Alcotest.(check int) "three events" 3 (List.length lines);
  let jsons = List.map parse_exn lines in
  (* Every line parses through Qcp_util.Json and carries the envelope. *)
  List.iter
    (fun j ->
      ignore (member_exn "ts" j);
      ignore (member_exn "mono" j);
      ignore (member_exn "seq" j);
      ignore (member_exn "level" j);
      ignore (member_exn "event" j))
    jsons;
  let first = List.nth jsons 0 in
  Alcotest.(check string) "event" "hello" (str_exn "event" first);
  Alcotest.(check string) "level" "info" (str_exn "level" first);
  Alcotest.(check string) "escaped string field" "wor\"ld\n"
    (str_exn "who" first);
  Alcotest.(check bool) "int field" true
    (member_exn "n" first = Json.Num 42.0);
  Alcotest.(check bool) "bool field" true
    (member_exn "flag" first = Json.Bool true);
  Alcotest.(check bool) "nested obj" true
    (member_exn "nested" first = Json.Obj [ ("a", Json.Num 1.0) ]);
  (* seq strictly increases in emission order. *)
  let seqs =
    List.map (fun j -> Option.get (Json.to_int (member_exn "seq" j))) jsons
  in
  Alcotest.(check bool) "seq increases" true
    (List.sort_uniq compare seqs = seqs)

let test_log_leveling () =
  (* At Warn, info/debug are suppressed; their field thunks never run. *)
  let evaluated = ref false in
  let text =
    with_log_capture (Some Log.Warn) (fun () ->
        Log.debug "d" (fun () ->
            evaluated := true;
            []);
        Log.info "i" (fun () ->
            evaluated := true;
            []);
        Log.warn "w" (fun () -> []);
        Log.error "e" (fun () -> []))
  in
  Alcotest.(check bool) "suppressed thunks not evaluated" false !evaluated;
  Alcotest.(check (list string)) "only warn and error emitted"
    [ "w"; "e" ]
    (List.map (fun l -> str_exn "event" (parse_exn l)) (log_lines text));
  (* Disarmed entirely: nothing is emitted at any level. *)
  let quiet =
    with_log_capture None (fun () -> Log.error "even-errors" (fun () -> []))
  in
  Alcotest.(check string) "disarmed emits nothing" "" quiet

(* ------------------------------------------------------------------ *)
(* Engine fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let engine ?(flight_cap = 0) ?slow_dump ?(jobs = 0) () =
  Engine.create
    {
      Server.default_config with
      Server.jobs;
      cache_cap = 64;
      flight_cap;
      slow_dump;
    }

let line_phaseest =
  "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"options\":{\"threshold\":100}}"

let job eng ?(id = "t") ?arrival line =
  let envelope = Engine.parse_line eng line in
  match envelope.Protocol.request with
  | Ok (Protocol.Place p) ->
    let arrival =
      match arrival with Some a -> a | None -> Qcp_util.Clock.now ()
    in
    Engine.make_job eng ~id ~arrival p
  | Ok _ -> Alcotest.failf "%s: not a place request" line
  | Error msg -> Alcotest.failf "%s: %s" line msg

let dispatch1 eng j =
  match Engine.dispatch eng ~now:(Qcp_util.Clock.now ()) [ j ] with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Access log round trip                                               *)
(* ------------------------------------------------------------------ *)

let test_access_log () =
  let eng = engine () in
  let text =
    with_log_capture (Some Log.Info) (fun () ->
        ignore (dispatch1 eng (job eng ~id:"r1" line_phaseest) : string);
        ignore (dispatch1 eng (job eng ~id:"r2" line_phaseest) : string))
  in
  let requests =
    List.filter_map
      (fun l ->
        let j = parse_exn l in
        if str_exn "event" j = "request" then Some j else None)
      (log_lines text)
  in
  Alcotest.(check int) "one access-log record per request" 2
    (List.length requests);
  let cold = List.nth requests 0 and hit = List.nth requests 1 in
  List.iter
    (fun j ->
      ignore (member_exn "req_seq" j);
      ignore (member_exn "key" j);
      Alcotest.(check string) "op" "place" (str_exn "op" j);
      Alcotest.(check string) "status" "ok" (str_exn "status" j);
      Alcotest.(check bool) "shed flag present" true
        (member_exn "shed" j = Json.Bool false);
      Alcotest.(check bool) "queue_wait_s is a number" true
        (Json.to_float (member_exn "queue_wait_s" j) <> None);
      Alcotest.(check bool) "wall_s is a number" true
        (Json.to_float (member_exn "wall_s" j) <> None))
    [ cold; hit ];
  Alcotest.(check string) "ids" "r1" (str_exn "id" cold);
  Alcotest.(check bool) "cold is uncached" true
    (member_exn "cached" cold = Json.Bool false);
  Alcotest.(check bool) "repeat is a hit" true
    (member_exn "cached" hit = Json.Bool true);
  Alcotest.(check string) "same key both times" (str_exn "key" cold)
    (str_exn "key" hit)

(* ------------------------------------------------------------------ *)
(* stats_json schema and counters                                      *)
(* ------------------------------------------------------------------ *)

let stats eng = parse_exn (Engine.stats_json eng)

let int_member name json = Option.get (Json.to_int (member_exn name json))

let test_stats_schema () =
  let eng = engine () in
  ignore (dispatch1 eng (job eng line_phaseest) : string);
  ignore (dispatch1 eng (job eng line_phaseest) : string);
  (* One expired-budget request: counted as both timeout and shed. *)
  let expired =
    "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"deadline\":0}"
  in
  ignore (dispatch1 eng (job eng expired) : string);
  let s = stats eng in
  Alcotest.(check bool) "uptime_s is a number" true
    (Json.to_float (member_exn "uptime_s" s) <> None);
  Alcotest.(check int) "requests" 3 (int_member "requests" s);
  Alcotest.(check int) "placed" 2 (int_member "placed" s);
  Alcotest.(check int) "timeouts" 1 (int_member "timeouts" s);
  Alcotest.(check int) "shed" 1 (int_member "shed" s);
  Alcotest.(check int) "errors" 0 (int_member "errors" s);
  Alcotest.(check int) "unplaceable" 0 (int_member "unplaceable" s);
  Alcotest.(check int) "overloaded" 0 (int_member "overloaded" s);
  Alcotest.(check int) "batches" 3 (int_member "batches" s);
  Alcotest.(check int) "max_batch" 1 (int_member "max_batch" s);
  let cache = member_exn "cache" s in
  Alcotest.(check int) "cache hits" 1 (int_member "hits" cache);
  Alcotest.(check int) "cache misses" 1 (int_member "misses" cache);
  Alcotest.(check int) "cache entries" 1 (int_member "entries" cache);
  Alcotest.(check int) "cache evictions" 0 (int_member "evictions" cache);
  let qw = member_exn "queue_wait" s in
  Alcotest.(check int) "queue-wait observations" 3 (int_member "count" qw)

let test_queue_wait_buckets () =
  (* Synthetic queue waits, one per target bucket, checked against the
     canonical bucket math of Metrics.default_time_bounds. *)
  let bounds = Metrics.default_time_bounds in
  let waits = [ 5e-7; 5e-5; 0.005; 50.0 ] in
  let eng = engine () in
  let now = Qcp_util.Clock.now () in
  let jobs =
    List.map (fun w -> job eng ~arrival:(now -. w) line_phaseest) waits
  in
  ignore (Engine.dispatch eng ~now jobs : string list);
  let qw = member_exn "queue_wait" (stats eng) in
  let counts =
    match member_exn "counts" qw with
    | Json.Arr items -> List.map (fun v -> Option.get (Json.to_int v)) items
    | _ -> Alcotest.fail "counts is not an array"
  in
  Alcotest.(check int) "one count per bucket (bounds + overflow)"
    (Array.length bounds + 1)
    (List.length counts);
  let expected = Array.make (Array.length bounds + 1) 0 in
  List.iter
    (fun w ->
      let i = Metrics.bucket_index bounds w in
      expected.(i) <- expected.(i) + 1)
    waits;
  Alcotest.(check (list int)) "bucket placement matches bucket_index"
    (Array.to_list expected) counts;
  Alcotest.(check int) "count" (List.length waits) (int_member "count" qw);
  let sum = Option.get (Json.to_float (member_exn "sum" qw)) in
  Alcotest.(check bool) "sum close to the waits' total" true
    (Float.abs (sum -. List.fold_left ( +. ) 0.0 waits) < 1e-3)

(* ------------------------------------------------------------------ *)
(* Armed vs quiet: response bytes                                      *)
(* ------------------------------------------------------------------ *)

let result_part response =
  match Helpers.substring_index response "\"result\":" with
  | Some i -> String.sub response i (String.length response - i)
  | None -> Alcotest.failf "no result in %s" response

let strip_wall s =
  match Helpers.substring_index s ",\"scoring_seconds\":" with
  | None -> s
  | Some i ->
    let j = String.index_from s i '}' in
    String.sub s 0 i ^ String.sub s j (String.length s - j)

let test_armed_vs_quiet_identical () =
  (* The full observability stack armed (structured log, flight recorder
     with span capture, auto-dump threshold) must not change a response's
     result bytes relative to a quiet engine — wall-clock fields aside,
     as with any two separate solves of one instance. *)
  let quiet_eng = engine () in
  let quiet = dispatch1 quiet_eng (job quiet_eng line_phaseest) in
  let armed_eng = engine ~flight_cap:8 ~slow_dump:3600.0 () in
  let armed = ref "" in
  ignore
    (with_log_capture (Some Log.Debug) (fun () ->
         armed := dispatch1 armed_eng (job armed_eng line_phaseest))
      : string);
  let armed = !armed in
  Alcotest.(check string) "armed result bytes = quiet result bytes"
    (strip_wall (result_part quiet))
    (strip_wall (result_part armed))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let flight_record seq =
  {
    Flight.f_seq = seq;
    f_id = Printf.sprintf "r%d" seq;
    f_op = "place";
    f_status = "ok";
    f_cached = false;
    f_shed = false;
    f_key = "deadbeefdeadbeef";
    f_arrival = float_of_int seq;
    f_queue_wait = 0.001;
    f_wall = 0.01;
    f_phases = [ ("split", 0.002) ];
    f_spans = [];
  }

let test_flight_ring () =
  let fl = Flight.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Flight.capacity fl);
  for seq = 0 to 4 do
    Flight.record fl (flight_record seq)
  done;
  Alcotest.(check int) "recorded counts overwritten" 5 (Flight.recorded fl);
  Alcotest.(check int) "length bounded by capacity" 3 (Flight.length fl);
  Alcotest.(check (list int)) "survivors are the newest, oldest first"
    [ 2; 3; 4 ]
    (List.map (fun r -> r.Flight.f_seq) (Flight.records fl));
  Alcotest.(check bool) "zero capacity rejected" true
    (match Flight.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let trace_events_exn json =
  match Json.member "traceEvents" json with
  | Some (Json.Arr events) -> events
  | _ -> Alcotest.fail "no traceEvents array"

let test_flight_dump_valid_trace () =
  (* An engine-populated recorder dumps a parseable Chrome trace: one
     request event per record plus the batch's captured solve spans. *)
  let eng = engine ~flight_cap:8 () in
  ignore (dispatch1 eng (job eng ~id:"cold" line_phaseest) : string);
  ignore (dispatch1 eng (job eng ~id:"hit" line_phaseest) : string);
  let fl = Option.get (Engine.flight eng) in
  Alcotest.(check int) "both requests recorded" 2 (Flight.length fl);
  let buf = Buffer.create 4096 in
  Flight.dump buf fl;
  let json = parse_exn (Buffer.contents buf) in
  let events = trace_events_exn json in
  Alcotest.(check bool) "at least the two request events" true
    (List.length events >= 2);
  let names = List.map (str_exn "name") events in
  Alcotest.(check bool) "request lane events present" true
    (List.mem "request#0" names && List.mem "request#1" names);
  Alcotest.(check bool) "solve spans captured for the cold solve" true
    (List.exists (fun n -> n <> "request#0" && n <> "request#1") names);
  (* The dump op serves the same document on one line. *)
  match Engine.control eng ~id:"d" Protocol.Dump with
  | None -> Alcotest.fail "dump not served"
  | Some response ->
    Alcotest.(check bool) "dump response is one line" false
      (String.contains response '\n');
    let result = member_exn "result" (parse_exn response) in
    Alcotest.(check int) "dump result carries every event"
      (List.length events)
      (List.length (trace_events_exn result))

let test_dump_disabled () =
  let eng = engine () in
  match Engine.control eng ~id:"d" Protocol.Dump with
  | None -> Alcotest.fail "dump not served"
  | Some response ->
    let json = parse_exn response in
    Alcotest.(check string) "dump without recorder is an error" "error"
      (str_exn "status" json)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prometheus_renderer () =
  let snap =
    [
      ("serve.cache.hits", Metrics.Counter 5);
      ("serve.uptime_seconds", Metrics.Gauge 1.5);
      ( "serve.queue_wait_seconds",
        Metrics.Histogram
          {
            bounds = [| 0.001; 0.01; 0.1 |];
            counts = [| 2; 0; 3; 1 |];
            sum = 0.35;
            count = 6;
          } );
    ]
  in
  let buf = Buffer.create 1024 in
  Export.prometheus buf snap;
  let text = Buffer.contents buf in
  let has s = Helpers.substring_index text s <> None in
  Alcotest.(check bool) "counter type line" true
    (has "# TYPE qcp_serve_cache_hits_total counter");
  Alcotest.(check bool) "counter sample" true
    (has "qcp_serve_cache_hits_total 5");
  Alcotest.(check bool) "gauge sample" true
    (has "qcp_serve_uptime_seconds 1.5");
  Alcotest.(check bool) "histogram type line" true
    (has "# TYPE qcp_serve_queue_wait_seconds histogram");
  (* Buckets are cumulative and monotone, +Inf equals the count. *)
  Alcotest.(check bool) "bucket le=0.001" true
    (has "qcp_serve_queue_wait_seconds_bucket{le=\"0.001\"} 2");
  Alcotest.(check bool) "bucket le=0.01 cumulative" true
    (has "qcp_serve_queue_wait_seconds_bucket{le=\"0.01\"} 2");
  Alcotest.(check bool) "bucket le=0.1 cumulative" true
    (has "qcp_serve_queue_wait_seconds_bucket{le=\"0.1\"} 5");
  Alcotest.(check bool) "+Inf equals count" true
    (has "qcp_serve_queue_wait_seconds_bucket{le=\"+Inf\"} 6");
  Alcotest.(check bool) "sum and count" true
    (has "qcp_serve_queue_wait_seconds_sum 0.35"
    && has "qcp_serve_queue_wait_seconds_count 6")

let test_prometheus_from_engine () =
  let eng = engine () in
  ignore (dispatch1 eng (job eng line_phaseest) : string);
  let text = Engine.stats_prometheus eng in
  let has s = Helpers.substring_index text s <> None in
  Alcotest.(check bool) "serve request counter" true
    (has "qcp_serve_requests_total 1");
  Alcotest.(check bool) "ok response counter" true
    (has "qcp_serve_responses_ok_total 1");
  Alcotest.(check bool) "queue-wait histogram present" true
    (has "# TYPE qcp_serve_queue_wait_seconds histogram");
  (* Every line is a comment or "name value": parseable exposition. *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | Some _ -> ()
        | None -> Alcotest.failf "unparseable sample line %S" line)
    (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Deadline shedding                                                   *)
(* ------------------------------------------------------------------ *)

let test_shed_mixed_batch () =
  (* In one batch: a live request solves, an expired one sheds — and the
     shed job never contributes a solve (its response carries no
     result). *)
  let eng = engine () in
  let now = Qcp_util.Clock.now () in
  let live = job eng ~id:"live" ~arrival:now line_phaseest in
  let expired_line =
    "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"deadline\":0.05}"
  in
  let expired = job eng ~id:"late" ~arrival:(now -. 1.0) expired_line in
  match Engine.dispatch eng ~now [ live; expired ] with
  | [ live_r; late_r ] ->
    Alcotest.(check string) "live solves" "ok"
      (str_exn "status" (parse_exn live_r));
    let late = parse_exn late_r in
    Alcotest.(check string) "expired sheds to timeout" "timeout"
      (str_exn "status" late);
    Alcotest.(check bool) "shed response has no result" true
      (Json.member "result" late = None);
    let s = stats eng in
    Alcotest.(check int) "one shed" 1 (int_member "shed" s);
    Alcotest.(check int) "counted as timeout" 1 (int_member "timeouts" s);
    Alcotest.(check int) "one placed" 1 (int_member "placed" s)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

let suite =
  [
    Alcotest.test_case "log lines round-trip through Json" `Quick
      test_log_roundtrip;
    Alcotest.test_case "log leveling suppresses below threshold" `Quick
      test_log_leveling;
    Alcotest.test_case "access log records every request" `Quick
      test_access_log;
    Alcotest.test_case "stats_json schema and counters" `Quick
      test_stats_schema;
    Alcotest.test_case "queue-wait histogram matches bucket_index" `Quick
      test_queue_wait_buckets;
    Alcotest.test_case "armed responses identical to quiet" `Quick
      test_armed_vs_quiet_identical;
    Alcotest.test_case "flight ring is bounded, oldest-first" `Quick
      test_flight_ring;
    Alcotest.test_case "flight dump is a valid Chrome trace" `Quick
      test_flight_dump_valid_trace;
    Alcotest.test_case "dump without a recorder errors" `Quick
      test_dump_disabled;
    Alcotest.test_case "prometheus renderer: types, cumulative buckets"
      `Quick test_prometheus_renderer;
    Alcotest.test_case "prometheus from the engine" `Quick
      test_prometheus_from_engine;
    Alcotest.test_case "expired budgets shed at dispatch" `Quick
      test_shed_mixed_batch;
  ]
