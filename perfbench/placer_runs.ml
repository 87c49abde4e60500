(* paper-sweep and scale-grid: placements through the public library API,
   every sample in a fresh process so caches start cold the way they do
   for [qcp place] and [qcp report]. *)

module Json = Qcp_util.Json
module Placer = Qcp.Placer
module Environment = Qcp_env.Environment
module Circuit = Qcp_circuit.Circuit
module Graph = Qcp_graph.Graph
module Trace = Qcp_obs.Trace

let now = Proc.now

(* Distinct inputs a workload cycles through: paper-sweep repeats one
   sweep, scale-grid places several instances. *)
let kinds ~smoke = function
  | "paper-sweep" -> 1
  | _ -> if smoke then 1 else Instances.scale_instances

let jobs_of ~workload ~smoke ~seed ~instance =
  match workload with
  | "paper-sweep" -> Instances.paper_sweep ~seed
  | "scale-grid" -> Instances.scale_grid ~smoke ~seed ~instance
  | w -> invalid_arg ("not a placer workload: " ^ w)

(* ------------------------------------------------------------------ *)
(* Output checks (run in the child, outside the timed pass)            *)
(* ------------------------------------------------------------------ *)

(* A placed program's structure, checked from its stages alone:
   injective placements, every two-qubit gate of a compute stage on an
   edge of the fast graph, vertex-disjoint SWAP levels on fast edges, and
   the source's gate count preserved. *)
let structural_problems (p : Placer.program) =
  let m = Environment.size p.Placer.env in
  let adj = p.Placer.adjacency in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let on_fast_edge u v = u >= 0 && u < m && v >= 0 && v < m && Graph.mem_edge adj u v in
  let gates = ref 0 in
  if p.Placer.spilled <> None then fail "stages were spilled";
  List.iteri
    (fun si stage ->
      match stage with
      | Placer.Compute { placement; circuit } ->
        let seen = Array.make m false in
        Array.iter
          (fun v ->
            if v < 0 || v >= m then fail "stage %d: vertex %d out of range" si v
            else if seen.(v) then fail "stage %d: placement not injective" si
            else seen.(v) <- true)
          placement;
        gates := !gates + Circuit.gate_count circuit;
        List.iter
          (fun g ->
            match Qcp_circuit.Gate.qubits g with
            | [ a; b ] ->
              let n = Array.length placement in
              if a >= n || b >= n then fail "stage %d: qubit outside placement" si
              else if not (on_fast_edge placement.(a) placement.(b)) then
                fail "stage %d: gate on %d-%d is off the fast graph" si
                  placement.(a) placement.(b)
            | _ -> ())
          (Circuit.gates circuit)
      | Placer.Permute net ->
        List.iteri
          (fun li level ->
            let used = Array.make m false in
            List.iter
              (fun (u, v) ->
                if not (on_fast_edge u v) then
                  fail "stage %d level %d: swap %d-%d off the fast graph" si li u v
                else if used.(u) || used.(v) then
                  fail "stage %d level %d: swaps share a vertex" si li
                else begin
                  used.(u) <- true;
                  used.(v) <- true
                end)
              level)
          net)
    p.Placer.stages;
  let source = Circuit.gate_count p.Placer.source in
  if !gates <> source then fail "stages hold %d gates, the source %d" !gates source;
  List.rev !problems

(* State-vector equivalence is affordable up to 12 qubits (Verify itself
   stops at 14 environment vertices); the Table 4 circuits' weighted
   custom gates have no simulation semantics. *)
let verify_equivalent (job : Instances.job) p =
  let simulable g =
    match g with
    | Qcp_circuit.Gate.G1 (Qcp_circuit.Gate.Custom1 _, _)
    | Qcp_circuit.Gate.G2 (Qcp_circuit.Gate.Custom2 _, _, _) -> false
    | Qcp_circuit.Gate.G1 _ | Qcp_circuit.Gate.G2 _ -> true
  in
  if Circuit.qubits job.Instances.circuit > 12
     || Environment.size job.Instances.env > 14
     || not (List.for_all simulable (Circuit.gates job.Instances.circuit))
  then []
  else
    match Qcp.Verify.equivalent p with
    | true -> []
    | false -> [ "not equivalent to its source circuit" ]
    | exception e -> [ "verification raised " ^ Printexc.to_string e ]

(* ------------------------------------------------------------------ *)
(* Child: one sample                                                   *)
(* ------------------------------------------------------------------ *)

let num v = Json.Num v
let int_num v = Json.Num (float_of_int v)

(* Each placement is timed alone and its program inspected (and, with
   [check], verified) right away, outside the timer, so the sample never
   holds more than one program: the peak heap is the placer's. *)
let child ~workload ~seed ~instance ~smoke ~trace ~check ~trace_file =
  let jobs = jobs_of ~workload ~smoke ~seed ~instance in
  print_endline "ready";
  if trace then begin
    Qcp_obs.Metrics.set_enabled true;
    Trace.start ~capacity:(1 lsl 16) ()
  end;
  let failures = ref [] in
  let phases = Hashtbl.create 8 in
  let counts = Hashtbl.create 8 in
  let count name v =
    Hashtbl.replace counts name (v + Option.value (Hashtbl.find_opt counts name) ~default:0)
  in
  let pass_s = ref 0.0 in
  let cells =
    List.mapi
      (fun i (job : Instances.job) ->
        let t0 = now () in
        let outcome =
          Trace.with_span ~cat:"bench" "place"
            ~args:(fun () -> [ ("cell", string_of_int i); ("name", job.Instances.name) ])
            (fun () -> Placer.place job.Instances.options job.Instances.env job.Instances.circuit)
        in
        let wall = now () -. t0 in
        pass_s := !pass_s +. wall;
        let expected =
          Instances.placeable job.Instances.env job.Instances.circuit
            ~threshold:job.Instances.options.Qcp.Options.threshold
        in
        let note msg = failures := (job.Instances.name ^ ": " ^ msg) :: !failures in
        match outcome with
        | Placer.Unplaceable msg ->
          if expected then note ("unplaceable: " ^ msg);
          count "unplaceable" 1;
          Json.Arr [ Json.Str job.Instances.name; num wall; Json.Null; Json.Null ]
        | Placer.Placed p ->
          if not expected then note "placed although no interaction is fast";
          if check then
            List.iter note (structural_problems p @ verify_equivalent job p);
          List.iter
            (fun (phase, s) ->
              Hashtbl.replace phases phase
                (s +. Option.value (Hashtbl.find_opt phases phase) ~default:0.0))
            (Placer.phase_seconds p);
          let st = p.Placer.stats in
          count "oracle_calls" st.Placer.oracle_calls;
          count "candidates_scored" st.Placer.candidates_scored;
          count "candidates_pruned" st.Placer.candidates_pruned;
          count "route_cache_hits" st.Placer.route_cache_hits;
          count "route_cache_misses" st.Placer.route_cache_misses;
          count "subcircuits" (Placer.subcircuit_count p);
          Json.Arr
            [
              Json.Str job.Instances.name;
              num wall;
              num (Placer.runtime p);
              int_num (Placer.subcircuit_count p);
            ])
      jobs
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  if trace then begin
    Trace.stop ();
    Option.iter
      (fun path -> Qcp_obs.Export.write_trace_file path (Trace.events ()))
      trace_file
  end;
  let table h f = Json.Obj (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) h []) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("pass_s", num !pass_s);
            ("top_heap_words", int_num top_heap_words);
            ("cells", Json.Arr cells);
            ("phases", table phases num);
            ("counts", table counts int_num);
            ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) !failures));
          ]))

(* ------------------------------------------------------------------ *)
(* Parent                                                              *)
(* ------------------------------------------------------------------ *)

type cell = { c_name : string; c_wall : float; c_runtime : string; c_subs : string }
(* Runtime and subcircuit count as rendered text ("N/A" / "-" when
   unplaceable), so golden and repeat comparisons are exact. *)

type sample = {
  instance : int;
  setup_s : float;
  pass_s : float;
  heap_words : float;
  cells : cell list;
  phases : (string * float) list;
  counts : (string * float) list;
  failures : string list;
}

let parse_sample ~instance ~setup_s line =
  let fail () = failwith ("malformed child output: " ^ line) in
  let json = match Json.parse line with Ok j -> j | Error _ -> fail () in
  let field name = match Json.member name json with Some v -> v | None -> fail () in
  let float_of v = match Json.to_float v with Some f -> f | None -> fail () in
  let pairs name =
    match field name with
    | Json.Obj kv -> List.map (fun (k, v) -> (k, float_of v)) kv
    | _ -> fail ()
  in
  let cell = function
    | Json.Arr [ Json.Str name; wall; runtime; subs ] ->
      let text v = match v with Json.Null -> None | v -> Some (Json.to_string v) in
      {
        c_name = name;
        c_wall = float_of wall;
        c_runtime = Option.value (text runtime) ~default:"N/A";
        c_subs = Option.value (text subs) ~default:"-";
      }
    | _ -> fail ()
  in
  {
    instance;
    setup_s;
    pass_s = float_of (field "pass_s");
    heap_words = float_of (field "top_heap_words");
    cells = List.map cell (Option.value (Json.to_list (field "cells")) ~default:[]);
    phases = pairs "phases";
    counts = pairs "counts";
    failures =
      List.filter_map Json.to_str
        (Option.value (Json.to_list (field "failures")) ~default:[]);
  }

(* Run one sample in a fresh process.  Set-up is the time from spawn to
   the child's "ready": process start, module initialization and input
   generation. *)
let run_sample (cfg : Spec.config) ~workload ~instance ~trace ~check ~trace_file =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ "child"; "--workload"; workload; "--seed"; string_of_int cfg.Spec.seed;
      "--instance"; string_of_int instance ]
    @ (if trace then [ "--trace" ] else [])
    @ (if check then [ "--check" ] else [])
    @ (if cfg.Spec.smoke then [ "--smoke" ] else [])
    @ match trace_file with Some f -> [ "--trace-file"; f ] | None -> []
  in
  let t0 = now () in
  let pid = Proc.spawn args ~stdout:w in
  Unix.close w;
  let lines = Proc.Lines.create r in
  let deadline = t0 +. 150.0 in
  let ready = Proc.Lines.next lines ~deadline in
  let setup_s = now () -. t0 in
  let result = Proc.Lines.next lines ~deadline in
  if result = None then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let status = Proc.reap pid in
  Unix.close r;
  match (ready, result) with
  | Some "ready", Some line when Proc.exited_ok status -> (
    try Ok (parse_sample ~instance ~setup_s line) with Failure msg -> Error msg)
  | _ -> Error (Printf.sprintf "%s sample (instance %d) did not finish" workload instance)

let golden_path workload seed =
  Filename.concat "perfbench/golden" (Printf.sprintf "%s-%d.tsv" workload seed)

let golden_line instance c =
  Printf.sprintf "%d\t%s\t%s\t%s" instance c.c_name c.c_runtime c.c_subs

let read_golden path =
  if Sys.file_exists path then
    Some
      (In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#'))
  else None

let sum = List.fold_left ( +. ) 0.0

let run (cfg : Spec.config) workload =
  let smoke = cfg.Spec.smoke in
  let kinds = kinds ~smoke workload in
  let min_samples = if smoke then 1 else Int.max 3 (2 * kinds) in
  let failures = ref [] in
  let attempted = ref 0 in
  let note msg = failures := msg :: !failures in
  let collect ~trace ~check ~trace_file instance =
    match run_sample cfg ~workload ~instance ~trace ~check ~trace_file with
    | Ok s ->
      attempted := !attempted + List.length s.cells;
      List.iter note s.failures;
      Some s
    | Error msg ->
      incr attempted;
      note msg;
      None
  in
  (* Untraced: every instance at least twice (checked the first time),
     then more passes until the budget is spent. *)
  let start = now () in
  let untraced = ref [] in
  let j = ref 0 in
  while !j < kinds || !j < min_samples || now () -. start < cfg.Spec.seconds do
    let instance = !j mod kinds in
    Option.iter
      (fun s -> untraced := s :: !untraced)
      (collect ~trace:false ~check:(!j < kinds) ~trace_file:None instance);
    incr j
  done;
  let untraced = List.rev !untraced in
  (* The first pass of each instance is its reference: later passes must
     repeat it exactly, and at the default seed it must match the golden
     file. *)
  let reference = Array.make kinds None in
  List.iter
    (fun s ->
      match reference.(s.instance) with
      | None -> reference.(s.instance) <- Some s
      | Some r ->
        List.iter2
          (fun a b ->
            if (a.c_runtime, a.c_subs) <> (b.c_runtime, b.c_subs) then
              note (Printf.sprintf "%s: pass differs from the first (%s vs %s)"
                      b.c_name b.c_runtime a.c_runtime))
          r.cells s.cells)
    untraced;
  let reference = List.filter_map Fun.id (Array.to_list reference) in
  let produced =
    List.concat_map (fun s -> List.map (golden_line s.instance) s.cells) reference
  in
  let path = golden_path workload cfg.Spec.seed in
  if cfg.Spec.write_golden then
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) produced)
  else if cfg.Spec.seed = Spec.default_seed workload && not smoke then (
    match read_golden path with
    | None -> note ("golden file missing: " ^ path)
    | Some golden ->
      List.iter
        (fun l -> if not (List.mem l golden) then note ("golden mismatch: " ^ l))
        produced);
  (* Each placement's time is its fastest repetition in the run: other
     tenants of a shared host only ever add time, and over a run they
     swing a whole pass by 10-20% while the fastest repetition moves a
     few percent. *)
  let best =
    List.concat_map
      (fun r ->
        List.fold_left
          (fun acc s ->
            if s.instance = r.instance then
              List.map2 (fun b c -> Float.min b c.c_wall) acc s.cells
            else acc)
          (List.map (fun c -> c.c_wall) r.cells)
          untraced)
      reference
  in
  let walls = Array.of_list best in
  let runtimes =
    List.concat_map
      (fun s -> List.filter_map (fun c -> float_of_string_opt c.c_runtime) s.cells)
      reference
  in
  let us = 1e6 in
  let e2e =
    [
      ("setup_s", Stat.median (Array.of_list (List.map (fun s -> s.setup_s) untraced)));
      ("p50_us", us *. Stat.percentile walls 50.0);
      ("req_per_s", float_of_int (Array.length walls) /. sum best);
      ("placed_runtime", sum runtimes /. float_of_int (List.length runtimes));
      ( "peak_heap_mb",
        Stat.median (Array.of_list (List.map (fun s -> s.heap_words *. 8.0 /. 1e6) untraced)) );
    ]
  in
  let layers =
    if not cfg.Spec.trace then []
    else begin
      (* Traced: each instance once (paper-sweep: three sweeps), phase
         clocks and spans armed; the first writes the Chrome trace. *)
      let n = if workload = "paper-sweep" && not smoke then 3 else kinds in
      let traced =
        List.filter_map Fun.id
          (List.init n (fun i ->
               let trace_file =
                 if i = 0 then
                   Some
                     (Filename.concat cfg.Spec.out_dir
                        (workload ^ ".trace.json"))
                 else None
               in
               collect ~trace:true ~check:false ~trace_file (i mod kinds)))
      in
      let k = float_of_int (Int.max 1 (List.length traced)) in
      let mean_of f = sum (List.map f traced) /. k in
      let wall = mean_of (fun s -> s.pass_s) in
      let phase p = mean_of (fun s -> Option.value (List.assoc_opt p s.phases) ~default:0.0) in
      let count c = mean_of (fun s -> Option.value (List.assoc_opt c s.counts) ~default:0.0) in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let untraced_mean i =
        Stat.mean
          (Array.of_list
             (List.filter_map (fun s -> if s.instance = i then Some s.pass_s else None) untraced))
      in
      let overhead =
        ratio (sum (List.map (fun s -> s.pass_s) traced))
          (sum (List.map (fun s -> untraced_mean s.instance) traced))
      in
      let phase_rows = List.map (fun p -> ("placer." ^ p ^ "_s", phase p)) Spec.placer_phases in
      [ ("placer.wall_s", wall) ]
      @ phase_rows
      @ [
          ("placer.unattributed_s", wall -. sum (List.map snd phase_rows));
          ("placer.oracle_calls", count "oracle_calls");
          ("placer.candidates_scored", count "candidates_scored");
          ("placer.prune_ratio", ratio (count "candidates_pruned") (count "candidates_scored"));
          ( "placer.route_cache_hit_ratio",
            ratio (count "route_cache_hits")
              (count "route_cache_hits" +. count "route_cache_misses") );
          ("placer.subcircuits", count "subcircuits");
          ("placer.unplaceable", count "unplaceable");
          ("p90_us", us *. Stat.percentile walls 90.0);
          ("p99_us", us *. Stat.percentile walls 99.0);
          ("trace.overhead", overhead);
        ]
      |> Spec.with_zero_layers
    end
  in
  {
    Spec.attempted = !attempted;
    failed = List.length !failures;
    failures = List.rev !failures;
    values = e2e @ layers;
  }
