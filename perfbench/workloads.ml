(* The repository benchmark: four seeded workloads, their checks, and the
   end-to-end and per-layer metrics BENCHMARK.json declares.

   Usage (from the repository root):
     workloads.exe run [--workload W]... [--seed S] [--seconds T]
                       [--trace [0|1]] [--smoke] [--out FILE] [--out-dir DIR]
                       [--write-golden]
     workloads.exe noise [--runs N] [--workload W]... [--seed S]
                         [--seconds T] [--trace] [--out FILE]
     workloads.exe compare A.json B.json

   [run] prints each workload's metrics by name with their units; its last
   line is one JSON object (correct, attempted, failed, metrics) carrying
   the end-to-end metrics, or with [--trace 1] the per-layer ones.  See
   perfbench/README.md. *)

let usage () =
  prerr_endline
    "usage: workloads.exe (run | noise | compare A.json B.json) [options]\n\
     see perfbench/README.md";
  exit 2

type opts = {
  mutable workloads : string list;
  mutable seed : int option;
  mutable seconds : float option;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable out_dir : string;
  mutable write_golden : bool;
  mutable runs : int;
  mutable instance : int;
  mutable check : bool;
  mutable trace_file : string option;
  mutable socket : string;
  mutable queue_cap : int;
  mutable positional : string list;
}

let parse_opts args =
  let o =
    {
      workloads = [];
      seed = None;
      seconds = None;
      trace = false;
      smoke = false;
      out = None;
      out_dir = ".perfbench";
      write_golden = false;
      runs = 5;
      instance = 0;
      check = false;
      trace_file = None;
      socket = "";
      queue_cap = 0;
      positional = [];
    }
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s expects an integer, got %S\n" name v;
      exit 2
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w Spec.workloads) then begin
        Printf.eprintf "unknown workload %S (expected %s)\n" w
          (String.concat ", " Spec.workloads);
        exit 2
      end;
      o.workloads <- o.workloads @ [ w ];
      go rest
    | "--seed" :: s :: rest -> o.seed <- Some (int_arg "--seed" s); go rest
    | "--seconds" :: s :: rest ->
      o.seconds <- Some (float_of_int (int_arg "--seconds" s));
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--out" :: f :: rest -> o.out <- Some f; go rest
    | "--out-dir" :: d :: rest -> o.out_dir <- d; go rest
    | "--write-golden" :: rest -> o.write_golden <- true; go rest
    | "--runs" :: n :: rest -> o.runs <- int_arg "--runs" n; go rest
    | "--instance" :: n :: rest -> o.instance <- int_arg "--instance" n; go rest
    | "--check" :: rest -> o.check <- true; go rest
    | "--trace-file" :: f :: rest -> o.trace_file <- Some f; go rest
    | "--socket" :: s :: rest -> o.socket <- s; go rest
    | "--queue-cap" :: n :: rest -> o.queue_cap <- int_arg "--queue-cap" n; go rest
    | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
      o.positional <- o.positional @ [ arg ];
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown or incomplete option %S\n" arg;
      usage ()
  in
  go args;
  o

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let load_declared () =
  match Spec.load_declared () with
  | d -> d
  | exception (Sys_error msg | Failure msg) ->
    prerr_endline ("cannot read the benchmark declaration: " ^ msg);
    exit 2

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_workload (cfg : Spec.config) w =
  match w with
  | "paper-sweep" | "scale-grid" -> Placer_runs.run cfg w
  | _ -> Serve_runs.run cfg w

let value result name =
  Option.value (List.assoc_opt name result.Spec.values) ~default:0.0

(* Breakdown checks of a traced run: each breakdown's unattributed row
   within 10% of its total. *)
let breakdown_problems w result =
  let share part total = if total > 0.0 then Float.abs part /. total else 0.0 in
  (if share (value result "placer.unattributed_s") (value result "placer.wall_s") > 0.10
   then [ w ^ ": placer breakdown more than 10% unattributed" ]
   else [])
  @
  let hit_total =
    value result "serve.transport_us" +. value result "serve.parse_us"
    +. value result "serve.dispatch_hit_us" +. value result "serve.unattributed_us"
  in
  if w = "serve-hit" && share (value result "serve.unattributed_us") hit_total > 0.10
  then [ w ^ ": serve hit-path breakdown more than 10% unattributed" ]
  else []

let run_command o =
  let declared = load_declared () in
  let workloads = if o.workloads = [] then Spec.workloads else o.workloads in
  let seconds =
    match o.seconds with
    | Some s -> s
    | None -> if o.smoke then 0.0 else float_of_int declared.Spec.d_run_seconds
  in
  mkdir_p o.out_dir;
  (* A wedged child must not hang the run: give up well inside the
     three-minute limit per workload, stopping every child first. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "workloads: time limit exceeded";
         Proc.kill_all ();
         exit 3));
  ignore (Unix.alarm (170 * List.length workloads) : int);
  let declared_metrics =
    if o.trace then declared.Spec.d_layers
    else List.map fst declared.Spec.d_end_to_end
  in
  let results =
    List.map
      (fun w ->
        let cfg =
          {
            Spec.seed = Option.value o.seed ~default:(Spec.default_seed w);
            seconds;
            trace = o.trace;
            smoke = o.smoke;
            out_dir = o.out_dir;
            write_golden = o.write_golden;
          }
        in
        let result = run_workload cfg w in
        let missing = Spec.missing declared ~trace:o.trace result in
        let nonfinite =
          List.filter_map
            (fun (name, v) -> if Float.is_finite v then None else Some name)
            result.Spec.values
        in
        let problems =
          List.map (fun n -> "metric missing: " ^ n) missing
          @ List.map (fun n -> "metric not measured: " ^ n) nonfinite
          @ if o.trace && o.smoke then breakdown_problems w result else []
        in
        let result =
          {
            result with
            Spec.failed = result.Spec.failed + List.length problems;
            failures = result.Spec.failures @ problems;
          }
        in
        Spec.print_table
          (Printf.sprintf "%s (seed %d, %s)" w cfg.Spec.seed
             (if o.trace then "traced" else "end to end"))
          (Spec.end_to_end @ if o.trace then Spec.layers else [])
          result;
        if o.trace && not o.smoke then
          List.iter (fun p -> Printf.printf "  WARNING: %s\n" p) (breakdown_problems w result);
        if o.trace && value result "loadgen.late_p99_ms" > 1.0 then
          Printf.printf "  WARNING: load generator ran late (p99 %.2f ms > 1 ms): run invalid\n"
            (value result "loadgen.late_p99_ms");
        (w, result))
      workloads
  in
  let total f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
  let combined =
    match results with
    | [ (_, r) ] -> r
    | _ ->
      {
        Spec.attempted = total (fun r -> r.Spec.attempted);
        failed = total (fun r -> r.Spec.failed);
        failures = [];
        values =
          List.concat_map
            (fun (w, r) -> List.map (fun (n, v) -> (w ^ "/" ^ n, v)) r.Spec.values)
            results;
      }
  in
  let metrics =
    match results with
    | [ _ ] -> declared_metrics
    | _ ->
      List.concat_map
        (fun (w, _) ->
          List.map
            (fun (m : Spec.metric) -> { m with Spec.name = w ^ "/" ^ m.Spec.name })
            declared_metrics)
        results
  in
  let correct = combined.Spec.failed = 0 in
  let line = Spec.result_line ~correct ~metrics combined in
  Option.iter
    (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (line ^ "\n")))
    o.out;
  print_endline line;
  if o.smoke && not correct then exit 1

(* ------------------------------------------------------------------ *)
(* noise and compare                                                   *)
(* ------------------------------------------------------------------ *)

module Json = Qcp_util.Json

(* Run [workloads.exe run] for one workload and seed in a fresh process;
   its last stdout line is the result. *)
let run_once o ~workload ~seed ~seconds =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ "run"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; string_of_int (int_of_float seconds);
      "--trace"; (if o.trace then "1" else "0"); "--out-dir"; o.out_dir ]
  in
  let pid = Proc.spawn args ~stdout:w in
  Unix.close w;
  let lines = Proc.Lines.create r in
  let last = ref None in
  let rec read () =
    match Proc.Lines.next lines ~deadline:(Proc.now () +. 600.0) with
    | Some l -> last := Some l; read ()
    | None -> ()
  in
  read ();
  Unix.close r;
  ignore (Proc.reap pid : Unix.process_status);
  match Option.map Json.parse !last with
  | Some (Ok json) -> Some json
  | _ -> None

let summary values =
  let a = Array.of_list values in
  let q1, _, q3 = Stat.quartiles a in
  let med = Stat.median a in
  Json.Obj
    [
      ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
      ("median", Json.Num med);
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("min", Json.Num (Array.fold_left Float.min Float.infinity a));
      ("max", Json.Num (Array.fold_left Float.max Float.neg_infinity a));
    ]


let noise_command o =
  let declared = load_declared () in
  let workloads = if o.workloads = [] then Spec.workloads else o.workloads in
  let seconds =
    Option.value o.seconds ~default:(float_of_int declared.Spec.d_run_seconds)
  in
  let metrics =
    if o.trace then declared.Spec.d_layers else List.map fst declared.Spec.d_end_to_end
  in
  mkdir_p o.out_dir;
  (* Interleave workloads so slow drift in machine load spreads over all
     of them; run i of a workload uses seed base + i. *)
  let collected = Hashtbl.create 8 in
  for i = 0 to o.runs - 1 do
    List.iter
      (fun w ->
        let seed = Option.value o.seed ~default:(Spec.default_seed w) + i in
        Printf.printf "noise: run %d/%d %s seed %d\n%!" (i + 1) o.runs w seed;
        let entry = Option.value (Hashtbl.find_opt collected w) ~default:[] in
        Hashtbl.replace collected w ((seed, run_once o ~workload:w ~seed ~seconds) :: entry))
      workloads
  done;
  let per_workload w =
    let runs = List.rev (Option.value (Hashtbl.find_opt collected w) ~default:[]) in
    let ok = List.filter_map snd runs in
    let failed =
      List.fold_left
        (fun acc j ->
          acc
          + int_of_float (Option.value (Spec.json_float j [ "failed" ]) ~default:0.0)
          + if Json.member "correct" j = Some (Json.Bool true) then 0 else 1)
        (List.length runs - List.length ok)
        ok
    in
    Json.Obj
      [
        ("seeds", Json.Arr (List.map (fun (s, _) -> Json.Num (float_of_int s)) runs));
        ("failed", Json.Num (float_of_int failed));
        ( "metrics",
          Json.Obj
            (List.filter_map
               (fun (m : Spec.metric) ->
                 let values =
                   List.filter_map
                     (fun j -> Spec.json_float j [ "metrics"; m.Spec.name; "value" ])
                     ok
                 in
                 if values = [] then None else Some (m.Spec.name, summary values))
               metrics) );
      ]
  in
  let summaries = List.map (fun w -> (w, per_workload w)) workloads in
  let out = Option.value o.out ~default:(Filename.concat o.out_dir "noise.json") in
  Out_channel.with_open_text out (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("runs", Json.Num (float_of_int o.runs));
                ("seconds", Json.Num seconds);
                ("trace", Json.Bool o.trace);
                ("workloads", Json.Obj summaries);
              ])
        ^ "\n"));
  Printf.printf "%-12s %-28s %14s %14s %14s %8s %8s %7s\n" "workload" "metric" "median" "q1" "q3"
    "spread" "max/min" "bound";
  List.iter
    (fun (w, j) ->
      List.iter
        (fun (m : Spec.metric) ->
          let g k = Spec.json_float j [ "metrics"; m.Spec.name; k ] in
          match (g "median", g "q1", g "q3", g "min", g "max") with
          | Some med, Some q1, Some q3, Some lo, Some hi ->
            Printf.printf "%-12s %-28s %14.6g %14.6g %14.6g %7.2f%% %8.3f %7s\n" w m.Spec.name med
              q1 q3
              (if med <> 0.0 then 100.0 *. (q3 -. q1) /. Float.abs med else 0.0)
              (if lo > 0.0 then hi /. lo else Float.nan)
              (match List.assoc_opt m declared.Spec.d_end_to_end with
              | Some b -> Printf.sprintf "%g%%" (100.0 *. b)
              | None -> "-")
          | _ -> ())
        metrics;
      Printf.printf "%-12s failed %g\n" w
        (Option.value (Spec.json_float j [ "failed" ]) ~default:0.0))
    summaries;
  Printf.printf "wrote %s\n" out

(* For each workload and metric of two noise reports: both medians and
   quartile ranges, and for end-to-end metrics a verdict against the
   bound.  A metric whose spread exceeds its bound is unresolved unless
   every run of B beats every run of A. *)
let compare_command o =
  let declared = load_declared () in
  let a_file, b_file =
    match o.positional with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let load f =
    match Json.parse (In_channel.with_open_bin f In_channel.input_all) with
    | Ok j -> j
    | Error e ->
      Printf.eprintf "%s: %s\n" f e;
      exit 2
  in
  let a = load a_file and b = load b_file in
  let regressions = ref 0 in
  Printf.printf "%-12s %-28s %30s %30s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "worse" "verdict";
  List.iter
    (fun w ->
      let metrics j =
        match Spec.json_path j [ "workloads"; w; "metrics" ] with
        | Some (Json.Obj kv) -> kv
        | _ -> []
      in
      let b_metrics = metrics b in
      List.iter
        (fun (name, sa) ->
          match (List.assoc_opt name b_metrics, Spec.find_metric name) with
          | Some sb, Some metric ->
            let f s k = Option.value (Spec.json_float s [ k ]) ~default:Float.nan in
            let values s =
              match Spec.json_path s [ "values" ] with
              | Some (Json.Arr l) -> List.filter_map Json.to_float l
              | _ -> []
            in
            let ma = f sa "median" and mb = f sb "median" in
            let lower = metric.Spec.better = Spec.Lower in
            let worse =
              if ma = 0.0 then 0.0
              else if lower then (mb -. ma) /. Float.abs ma
              else (ma -. mb) /. Float.abs ma
            in
            let spread s =
              if f s "median" = 0.0 then 0.0
              else (f s "q3" -. f s "q1") /. Float.abs (f s "median")
            in
            let verdict =
              match List.assoc_opt metric declared.Spec.d_end_to_end with
              | None when metric.Spec.unit = "count" ->
                if values sa = values sb then "identical" else "counts differ"
              | None -> "-"
              | Some bound ->
                let all_better =
                  let va = values sa and vb = values sb in
                  va <> [] && vb <> []
                  && List.for_all
                       (fun y -> List.for_all (fun x -> if lower then y < x else y > x) va)
                       vb
                in
                if worse > bound then begin
                  incr regressions;
                  "WORSE than bound"
                end
                else if Float.max (spread sa) (spread sb) > bound && not all_better then
                  "unresolved"
                else "within bound"
            in
            Printf.printf "%-12s %-28s %12.6g [%7.4g, %7.4g] %12.6g [%7.4g, %7.4g] %7.2f%%  %s\n" w
              name ma (f sa "q1") (f sa "q3") mb (f sb "q1") (f sb "q3") (100.0 *. worse) verdict
          | _ -> ())
        (metrics a))
    Spec.workloads;
  if !regressions > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  (* A daemon that dies mid-run must surface as an error, not kill the
     load generator with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.kill_all;
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_command (parse_opts args)
  | _ :: "noise" :: args -> noise_command (parse_opts args)
  | _ :: "compare" :: args -> compare_command (parse_opts args)
  | _ :: "child" :: args ->
    let o = parse_opts args in
    Placer_runs.child
      ~workload:(match o.workloads with [ w ] -> w | _ -> usage ())
      ~seed:(Option.value o.seed ~default:0)
      ~instance:o.instance ~smoke:o.smoke ~trace:o.trace ~check:o.check
      ~trace_file:o.trace_file
  | _ :: "daemon" :: args ->
    let o = parse_opts args in
    Serve_runs.daemon_main ~socket:o.socket ~queue_cap:o.queue_cap
  | _ -> usage ()
