(* The telemetry layer's contract: spans merge deterministically across
   pool domains, restarting invalidates the previous epoch, histogram
   bucket math is exact, the Chrome-trace exporter round-trips through a
   minimal reader, and — the load-bearing invariant — placements are bit-identical with
   telemetry on and off. *)

module Trace = Qcp_obs.Trace
module Metrics = Qcp_obs.Metrics
module Export = Qcp_obs.Export
module Task_pool = Qcp_util.Task_pool
module Placer = Qcp.Placer

(* Deterministic busy work of varying duration so steal interleavings
   differ between runs (same idiom as suite_task_pool). *)
let burn i =
  let rounds = (i * 37 mod 97) * 50 in
  let acc = ref i in
  for k = 1 to rounds do
    acc := (!acc * 1103515245) + k
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Span nesting and deterministic merge                                 *)
(* ------------------------------------------------------------------ *)

let test_nested_span_order () =
  Trace.start ();
  let r =
    Trace.with_span ~cat:"test" "obs/parent" (fun () ->
        Trace.with_span ~cat:"test" "obs/child" (fun () -> 41) + 1)
  in
  Trace.stop ();
  Alcotest.(check int) "result passes through" 42 r;
  match Trace.events () with
  | [ child; parent ] ->
    (* Children close first, so the deterministic merge puts them first. *)
    Alcotest.(check string) "child first" "obs/child" child.Trace.name;
    Alcotest.(check string) "parent second" "obs/parent" parent.Trace.name;
    Alcotest.(check bool) "seq orders close time" true
      (child.Trace.seq < parent.Trace.seq);
    Alcotest.(check bool) "parent spans child" true
      (parent.Trace.dur >= child.Trace.dur);
    Alcotest.(check bool) "parent self excludes child" true
      (parent.Trace.self <= parent.Trace.dur -. child.Trace.dur +. 1e-9)
  | events -> Alcotest.failf "expected 2 events, got %d" (List.length events)

let test_pool_spans_merge_deterministically () =
  let pool = Task_pool.get () in
  let slots = 64 in
  Trace.start ();
  Task_pool.parallel_for pool ~jobs:2
    ~body:(fun ~worker:_ i ->
      Trace.with_span ~cat:"test" "obs/outer" (fun () ->
          Trace.with_span ~cat:"test" "obs/inner" (fun () -> ignore (burn i))))
    slots;
  Trace.stop ();
  let events = Trace.events () in
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped ());
  Alcotest.(check int) "two spans per slot" (2 * slots) (List.length events);
  let count name =
    List.length (List.filter (fun e -> e.Trace.name = name) events)
  in
  Alcotest.(check int) "all inner spans survive" slots (count "obs/inner");
  Alcotest.(check int) "all outer spans survive" slots (count "obs/outer");
  let seqs = List.map (fun e -> e.Trace.seq) events in
  Alcotest.(check bool) "merge is sorted by unique seq" true
    (List.for_all2 (fun a b -> a < b) seqs (List.tl seqs @ [ max_int ]));
  (* Bodies run sequentially on each domain, so per domain the close
     order must strictly alternate inner, outer, inner, outer, ... *)
  let tids = List.sort_uniq compare (List.map (fun e -> e.Trace.tid) events) in
  List.iter
    (fun tid ->
      let names =
        List.filter_map
          (fun e -> if e.Trace.tid = tid then Some e.Trace.name else None)
          events
      in
      List.iteri
        (fun i name ->
          let expected = if i mod 2 = 0 then "obs/inner" else "obs/outer" in
          Alcotest.(check string)
            (Printf.sprintf "tid %d position %d" tid i)
            expected name)
        names)
    tids;
  (* The merge is a pure function of the recorded set. *)
  Alcotest.(check bool) "repeated merge is structurally equal" true
    (events = Trace.events ())

let test_restart_invalidates_epoch () =
  Trace.start ();
  for _ = 1 to 3 do
    Trace.with_span "obs/stale" (fun () -> ())
  done;
  Trace.stop ();
  Alcotest.(check int) "first epoch recorded" 3 (List.length (Trace.events ()));
  Trace.start ();
  Trace.with_span "obs/fresh" (fun () -> ());
  Trace.stop ();
  match Trace.events () with
  | [ e ] -> Alcotest.(check string) "only the new epoch" "obs/fresh" e.Trace.name
  | events ->
    Alcotest.failf "expected 1 event after restart, got %d" (List.length events)

(* ------------------------------------------------------------------ *)
(* Histogram bucket math                                                *)
(* ------------------------------------------------------------------ *)

let test_bucket_index () =
  let bounds = Metrics.default_time_bounds in
  let n = Array.length bounds in
  Alcotest.(check int) "below first bound" 0 (Metrics.bucket_index bounds 5e-7);
  Alcotest.(check int) "exactly on a bound is inclusive" 0
    (Metrics.bucket_index bounds bounds.(0));
  Alcotest.(check int) "just above a bound" 1
    (Metrics.bucket_index bounds (bounds.(0) *. 1.5));
  Alcotest.(check int) "last bound" (n - 1)
    (Metrics.bucket_index bounds bounds.(n - 1));
  Alcotest.(check int) "overflow bucket" n
    (Metrics.bucket_index bounds (bounds.(n - 1) *. 10.0))

let test_histogram_observe () =
  let t = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] t "obs.test.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 2.0; 3.0; 8.0 ];
  match Metrics.find (Metrics.snapshot t) "obs.test.hist" with
  | Some (Metrics.Histogram { bounds; counts; sum; count }) ->
    Alcotest.(check (array (float 0.0))) "bounds kept" [| 1.0; 2.0; 4.0 |] bounds;
    Alcotest.(check (array int)) "per-bucket counts" [| 1; 2; 1; 1 |] counts;
    Alcotest.(check (float 1e-9)) "sum" 15.0 sum;
    Alcotest.(check int) "count" 5 count
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* ------------------------------------------------------------------ *)
(* Trace JSON round trip                                                *)
(* ------------------------------------------------------------------ *)

(* Minimal reader for the exporter's output: one event object per line,
   flat string/number fields.  Deliberately not a general JSON parser —
   just enough to prove the export is loadable. *)
let field_string line key =
  let marker = Printf.sprintf "\"%s\": \"" key in
  match Helpers.substring_index line marker with
  | None -> None
  | Some at ->
    let start = at + String.length marker in
    (match String.index_from_opt line start '"' with
    | None -> None
    | Some close -> Some (String.sub line start (close - start)))

let field_number line key =
  let marker = Printf.sprintf "\"%s\": " key in
  match Helpers.substring_index line marker with
  | None -> None
  | Some at ->
    let start = at + String.length marker in
    let stop = ref start in
    while
      !stop < String.length line
      && (match line.[!stop] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub line start (!stop - start))

let parse_trace_lines json =
  String.split_on_char '\n' json
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if Helpers.substring_index line "{\"name\":" = Some 0 then
           match
             ( field_string line "name",
               field_string line "ph",
               field_number line "tid",
               field_number line "ts",
               field_number line "dur" )
           with
           | Some name, Some ph, Some tid, Some ts, Some dur ->
             Some (name, ph, int_of_float tid, ts, dur)
           | _ -> Alcotest.failf "unparsable trace event line %S" line
         else None)

let test_trace_json_round_trip () =
  Trace.start ();
  Trace.with_span ~cat:"test"
    ~args:(fun () -> [ ("quoted", {|a "b" \ c|}) ])
    "obs/json outer"
    (fun () -> Trace.with_span ~cat:"test" "obs/json-inner" (fun () -> ()));
  Trace.stop ();
  let events = Trace.events () in
  let buf = Buffer.create 1024 in
  Export.trace_json buf events;
  let json = Buffer.contents buf in
  Alcotest.(check bool) "traceEvents envelope" true
    (Helpers.substring_index json "{\"traceEvents\": [" = Some 0);
  Alcotest.(check bool) "display unit footer" true
    (Helpers.substring_index json "\"displayTimeUnit\": \"ms\"" <> None);
  Alcotest.(check bool) "args escape quotes" true
    (Helpers.substring_index json {|"quoted": "a \"b\" \\ c"|} <> None);
  let parsed = parse_trace_lines json in
  Alcotest.(check int) "one JSON object per event" (List.length events)
    (List.length parsed);
  List.iter2
    (fun ev (name, ph, tid, ts_us, dur_us) ->
      Alcotest.(check string) "name survives" ev.Trace.name name;
      Alcotest.(check string) "complete event" "X" ph;
      Alcotest.(check int) "tid survives" ev.Trace.tid tid;
      (* Timestamps are printed in microseconds with three decimals. *)
      Alcotest.(check (float 1e-3)) "ts in us" (ev.Trace.ts *. 1e6) ts_us;
      Alcotest.(check (float 1e-3)) "dur in us" (ev.Trace.dur *. 1e6) dur_us)
    events parsed

(* ------------------------------------------------------------------ *)
(* Telemetry on/off bit identity                                        *)
(* ------------------------------------------------------------------ *)

let place_chain ~seed ~jobs =
  let rng = Qcp_util.Rng.create seed in
  let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n:10 in
  let env = Qcp_env.Environment.chain 10 in
  let options = { (Qcp.Options.fast ~threshold:50.0) with Qcp.Options.jobs } in
  match Placer.place options env circuit with
  | Placer.Placed p -> p
  | Placer.Unplaceable msg -> Alcotest.failf "seed %d unplaceable: %s" seed msg

let test_bit_identity_10_seeds () =
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.stop ())
    (fun () ->
      for seed = 1 to 10 do
        (* Alternate pool fan-out so both the sequential and the parallel
           candidate sweep are covered. *)
        let jobs = if seed mod 2 = 0 then 2 else 0 in
        Metrics.set_enabled false;
        let off = place_chain ~seed ~jobs in
        Metrics.set_enabled true;
        Trace.start ();
        let on = place_chain ~seed ~jobs in
        Trace.stop ();
        Metrics.set_enabled false;
        let label fmt = Printf.sprintf ("seed %d jobs %d: " ^^ fmt) seed jobs in
        Alcotest.(check (float 0.0))
          (label "runtime") (Placer.runtime off) (Placer.runtime on);
        Alcotest.(check bool)
          (label "placements") true
          (Placer.placements off = Placer.placements on);
        Alcotest.(check int)
          (label "swap depth")
          (Placer.swap_depth_total off)
          (Placer.swap_depth_total on);
        (* At jobs >= 2 the pruning-side counters (candidates_pruned,
           lower_bound_skips, timing_early_exits, networks_routed) are
           schedule-dependent — which evaluations the shared incumbent
           aborts depends on domain interleaving (see {!Placer.stats}) —
           and so is candidates_scored: lookahead skips a candidate's
           second-stage scoring when its stage-1 makespan already exceeds
           the incumbent *at that moment*.  Only the truly
           schedule-independent counters are compared there. *)
        let counters (p : Placer.program) =
          let s = p.Placer.stats in
          if jobs >= 2 then
            (s.Placer.oracle_calls, s.Placer.enumerations, 0, 0, 0, 0, 0)
          else
            ( s.Placer.oracle_calls,
              s.Placer.enumerations,
              s.Placer.candidates_scored,
              s.Placer.candidates_pruned,
              s.Placer.lower_bound_skips,
              s.Placer.timing_early_exits,
              s.Placer.networks_routed )
        in
        Alcotest.(check bool)
          (label "search counters") true
          (counters off = counters on);
        (* The traced run must actually have produced placer spans. *)
        let traced = Trace.events () in
        Alcotest.(check bool)
          (label "trace captured placer spans") true
          (List.exists (fun e -> e.Trace.name = "placer/place") traced)
      done)

let suite =
  [
    Alcotest.test_case "nested span order" `Quick test_nested_span_order;
    Alcotest.test_case "pool spans merge deterministically" `Quick
      test_pool_spans_merge_deterministically;
    Alcotest.test_case "restart invalidates epoch" `Quick
      test_restart_invalidates_epoch;
    Alcotest.test_case "bucket index" `Quick test_bucket_index;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "trace JSON round trip" `Quick
      test_trace_json_round_trip;
    Alcotest.test_case "bit identity over 10 seeds" `Slow
      test_bit_identity_10_seeds;
  ]
