(* The benchmark's vocabulary: workloads, metric names and units, and the
   bounds BENCHMARK.json fixes.  Every workload reports every metric; a
   layer a workload does not exercise reports 0. *)

module Json = Qcp_util.Json

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

let workloads = [ "paper-sweep"; "scale-grid"; "serve-hit"; "serve-mixed" ]

let default_seed = function
  | "paper-sweep" -> 2007
  | "scale-grid" -> 4242
  | "serve-hit" -> 31
  | "serve-mixed" -> 47
  | w -> invalid_arg ("unknown workload " ^ w)

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "p50_us" "us" Lower;
    m "req_per_s" "1/s" Higher;
    m "placed_runtime" "delay_units" Lower;
    m "peak_heap_mb" "MB" Lower;
  ]

(* serve-mixed's open-loop rates in req/s: about 0.25C, 0.5C, 1.0C and
   1.5C of the saturation rate C = 4,000 req/s measured on a 2-core
   x86-64 container with the daemon at jobs = 0.  Fixed here, not derived
   per run, so every commit is offered the same load. *)
let mixed_rates = [ 1000; 2000; 4000; 6000 ]

(* The step whose latency is serve-mixed's p50 (and layer tails).  At
   0.5C a host slowdown of a tenth already doubles the queueing (p50
   spread 49% over ten runs on a drifting host); at 0.25C the round trip
   is mostly the host waking the idle daemon (p50 ~300 us, of which 5 us
   is queueing and dispatch inside it), which spread 11-23%. *)
let mixed_reported_rate = 1000

let step_name rate field = Printf.sprintf "serve.step.%d.%s" rate field

let placer_phases =
  [ "split"; "enumerate"; "greedy"; "lookahead"; "fine_tune"; "route"; "balance" ]

let layers =
  [ m "placer.wall_s" "s" Lower ]
  @ List.map (fun p -> m ("placer." ^ p ^ "_s") "s" Lower) placer_phases
  @ [
      m "placer.unattributed_s" "s" Lower;
      m "placer.oracle_calls" "count" Lower;
      m "placer.candidates_scored" "count" Lower;
      m "placer.prune_ratio" "ratio" Higher;
      m "placer.route_cache_hit_ratio" "ratio" Higher;
      m "placer.subcircuits" "count" Lower;
      m "placer.unplaceable" "count" Lower;
      m "serve.transport_us" "us" Lower;
      m "serve.parse_us" "us" Lower;
      m "serve.key_us" "us" Lower;
      m "serve.dispatch_hit_us" "us" Lower;
      m "serve.dispatch_miss_ms" "ms" Lower;
      m "serve.unattributed_us" "us" Lower;
      m "serve.cache_hit_ratio" "ratio" Higher;
      m "serve.cache_evictions" "count" Lower;
      m "serve.batch_mean" "count" Higher;
      m "serve.queue_wait_mean_ms" "ms" Lower;
    ]
  @ List.concat_map
      (fun r ->
        [
          m (step_name r "p50_us") "us" Lower;
          m (step_name r "p99_us") "us" Lower;
          m (step_name r "failed") "count" Lower;
        ])
      mixed_rates
  @ [
      m "serve.goodput_rps" "1/s" Higher;
      m "p90_us" "us" Lower;
      m "p99_us" "us" Lower;
      m "loadgen.late_p99_ms" "ms" Lower;
      m "trace.overhead" "ratio" Lower;
    ]

(* The layer values given, and 0 for every layer they leave out: a layer
   the workload does not exercise. *)
let with_zero_layers values =
  values
  @ List.filter_map
      (fun m -> if List.mem_assoc m.name values then None else Some (m.name, 0.0))
      layers

let find_metric name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ layers)

(* How one workload runs. *)
type config = {
  seed : int;
  seconds : float;  (** measurement budget of the untraced run *)
  trace : bool;  (** also run traced and report the per-layer metrics *)
  smoke : bool;  (** shrink every workload to about a second, checks on *)
  out_dir : string;  (** Chrome traces, daemon sockets *)
  write_golden : bool;
}

(* What one run of one workload produced. *)
type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** what failed, for the human-readable report *)
  values : (string * float) list;  (** metric name -> value *)
}

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type declared = {
  d_end_to_end : (metric * float) list;  (** with its bound *)
  d_layers : metric list;
  d_run_seconds : int;
}

let rec json_path json = function
  | [] -> Some json
  | k :: rest -> Option.bind (Json.member k json) (fun j -> json_path j rest)

let json_float json path = Option.bind (json_path json path) Json.to_float

let benchmark_file = "BENCHMARK.json"

let load_declared () =
  let text =
    In_channel.with_open_bin benchmark_file In_channel.input_all
  in
  let fail msg = failwith (benchmark_file ^ ": " ^ msg) in
  let json = match Json.parse text with Ok j -> j | Error e -> fail e in
  let str name j =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> s
    | None -> fail ("missing string " ^ name)
  in
  let list name j =
    match Option.bind (Json.member name j) Json.to_list with
    | Some l -> l
    | None -> fail ("missing list " ^ name)
  in
  let metric j =
    let better =
      match str "better" j with
      | "lower" -> Lower
      | "higher" -> Higher
      | other -> fail ("bad better " ^ other)
    in
    m (str "name" j) (str "unit" j) better
  in
  {
    d_end_to_end =
      List.map
        (fun j ->
          ( metric j,
            match Option.bind (Json.member "bound" j) Json.to_float with
            | Some b -> b
            | None -> fail "end_to_end metric without bound" ))
        (list "end_to_end" json);
    d_layers = List.map metric (list "per_layer" json);
    d_run_seconds =
      (match Option.bind (Json.member "run_seconds" json) Json.to_int with
      | Some s -> s
      | None -> fail "missing run_seconds");
  }

(* Declared metrics the result lacks, or whose unit disagrees with the
   runner's. *)
let missing declared ~trace result =
  let wanted =
    if trace then declared.d_layers else List.map fst declared.d_end_to_end
  in
  List.filter_map
    (fun (d : metric) ->
      match (List.assoc_opt d.name result.values, find_metric d.name) with
      | None, _ | _, None -> Some d.name
      | Some _, Some mine when mine.unit <> d.unit ->
        Some (Printf.sprintf "%s (unit %s, declared %s)" d.name mine.unit d.unit)
      | Some _, Some _ -> None)
    wanted

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* All digits, as measured; JSON has no NaN or infinity, so a value that
   could not be measured renders as 0 and is reported as a failure by the
   caller. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_object names result =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (metric : metric) ->
      if i > 0 then Buffer.add_char b ',';
      let v = Option.value (List.assoc_opt metric.name result.values) ~default:Float.nan in
      Printf.bprintf b "%S:{\"value\":%s,\"unit\":%S}" metric.name (number v)
        metric.unit)
    names;
  Buffer.add_char b '}';
  Buffer.contents b

let result_line ~correct ~metrics result =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}"
    correct result.attempted result.failed (metrics_object metrics result)

let pretty_value metric v =
  match metric.unit with
  | "count" when Float.is_integer v -> Printf.sprintf "%.0f" v
  | _ ->
    let a = Float.abs v in
    if a = 0.0 then "0"
    else if a >= 1e5 then Printf.sprintf "%.0f" v
    else if a >= 100.0 then Printf.sprintf "%.1f" v
    else if a >= 1.0 then Printf.sprintf "%.3f" v
    else Printf.sprintf "%.4g" v

let print_table title metrics result =
  Printf.printf "%s\n" title;
  List.iter
    (fun metric ->
      match List.assoc_opt metric.name result.values with
      | Some v ->
        Printf.printf "  %-28s %14s %s\n" metric.name (pretty_value metric v)
          metric.unit
      | None -> Printf.printf "  %-28s %14s %s\n" metric.name "-" metric.unit)
    metrics;
  Printf.printf "  attempted %d, failed %d\n" result.attempted result.failed;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) result.failures;
  flush stdout
