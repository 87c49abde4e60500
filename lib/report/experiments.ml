module Text_table = Qcp_util.Text_table
module Environment = Qcp_env.Environment
module Molecules = Qcp_env.Molecules
module Catalog = Qcp_circuit.Catalog
module Circuit = Qcp_circuit.Circuit
module Timing = Qcp_circuit.Timing
module Placer = Qcp.Placer
module Options = Qcp.Options
module Baselines = Qcp.Baselines

let seconds units = units /. 10000.0

let fmt_sec s = Printf.sprintf "%.4f sec" s

(* ------------------------------------------------------------------ *)
(* Table 1 / Example 3                                                 *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let env = Molecules.acetyl_chloride in
  let circuit = Catalog.qec3_encode in
  let weights = Environment.weights env in
  let describe label placement =
    let t = Text_table.create ~title:label [ "after gate"; "time[a]"; "time[b]"; "time[c]" ] in
    let prefix = ref [] in
    List.iter
      (fun gate ->
        prefix := gate :: !prefix;
        if Qcp_circuit.Gate.duration gate > 0.0 then begin
          let c = Circuit.make ~qubits:3 (List.rev !prefix) in
          let times =
            Timing.finish_times ~weights ~place:(fun q -> placement.(q)) c
          in
          Text_table.add_row t
            [
              Qcp_circuit.Gate.name gate;
              Printf.sprintf "%.0f" times.(0);
              Printf.sprintf "%.0f" times.(1);
              Printf.sprintf "%.0f" times.(2);
            ]
        end)
      (Circuit.gates circuit);
    Text_table.render t
  in
  let nucleus_names placement =
    String.concat ", "
      (List.mapi
         (fun q v ->
           Printf.sprintf "%c->%s" (Char.chr (Char.code 'a' + q))
             (Environment.nucleus env v))
         (Array.to_list placement))
  in
  let bad = [| 0; 2; 1 |] and optimal = [| 2; 1; 0 |] in
  String.concat "\n"
    [
      "Table 1 / Example 3: qubit-by-qubit timing of the 3-qubit encoder on acetyl chloride";
      "";
      describe (Printf.sprintf "Mapping {%s} (paper Table 1, runtime 770)" (nucleus_names bad)) bad;
      describe
        (Printf.sprintf "Optimal mapping {%s} (paper Example 3, runtime 136)"
           (nucleus_names optimal))
        optimal;
    ]

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2_rows =
  [
    ("error correction encoding", Catalog.qec3_encode, Molecules.acetyl_chloride, None);
    ("5 bit error correction", Catalog.qec5_encode, Molecules.trans_crotonic_acid, Some 100.0);
    ("pseudo-cat state preparation", Catalog.cat_state 10, Molecules.histidine, Some 1000.0);
  ]

(* One "label: phase breakdown" line per placed row, from the program's
   per-phase wall-second gauges. *)
let pretty_phase_seconds s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.0f us" (s *. 1e6)

let phase_line label p =
  let parts =
    List.filter_map
      (fun (name, s) ->
        if s > 0.0 then Some (Printf.sprintf "%s %s" name (pretty_phase_seconds s))
        else None)
      (Placer.phase_seconds p)
  in
  Printf.sprintf "  %-42s %s\n" label
    (if parts = [] then "-" else String.concat ", " parts)

let phase_section buf pbuf =
  if Buffer.length pbuf > 0 then begin
    Buffer.add_string buf "phase seconds (wall, per row):\n";
    Buffer.add_buffer buf pbuf;
    Buffer.add_char buf '\n'
  end

(* Tables 2-4 run their placements through [Placer.place_batch]: the job
   list is built in row order, mapped over the pool, and the rendering
   consumes the outcomes in the same order — so the rendered text is
   byte-identical at any [jobs] value (outcomes are bit-identical and the
   formatting is order-preserving). *)
(* [portfolio] swaps the batch engine for {!Qcp.Portfolio.place_batch}:
   every cell runs the five-entry reduce instead of a single classic
   pipeline (same outcome order, still deterministic). *)
let batch ~portfolio ~jobs specs =
  if portfolio then Qcp.Portfolio.place_batch ~jobs specs
  else Placer.place_batch ~jobs specs

let table2 ?(jobs = Qcp_util.Task_pool.env_jobs ()) ?(phases = false)
    ?(portfolio = false) () =
  let t =
    Text_table.create
      ~title:"Table 2: mapping experimentally constructed circuits into their environments"
      [
        "circuit"; "# gates"; "# qubits"; "environment"; "# qubits";
        "circuit runtime"; "search space size";
      ]
  in
  let specs =
    List.map
      (fun (_, circuit, env, threshold) ->
        let threshold =
          match threshold with
          | Some th -> th
          | None -> Environment.min_threshold_connected env
        in
        (Options.default ~threshold, env, circuit))
      table2_rows
  in
  let outcomes = batch ~portfolio ~jobs specs in
  let pbuf = Buffer.create 256 in
  List.iter2
    (fun (name, circuit, env, _) outcome ->
      let cell =
        match outcome with
        | Placer.Placed p ->
          if phases then Buffer.add_string pbuf (phase_line name p);
          fmt_sec (Placer.runtime_seconds p)
        | Placer.Unplaceable msg -> "N/A: " ^ msg
      in
      Text_table.add_row t
        [
          name;
          string_of_int (Circuit.gate_count circuit);
          string_of_int (Circuit.qubits circuit);
          Environment.name env;
          string_of_int (Environment.size env);
          cell;
          Qcp_util.Bigdec.to_string
            (Environment.search_space env ~qubits:(Circuit.qubits circuit));
        ])
    table2_rows outcomes;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Text_table.render t);
  phase_section buf pbuf;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let thresholds = [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ]

let table3_sections =
  [
    (Molecules.boc_glycine_fluoride, [ "phaseest" ]);
    (Molecules.iron_complex, [ "phaseest" ]);
    (Molecules.trans_crotonic_acid, [ "phaseest"; "qft6" ]);
    ( Molecules.histidine,
      [ "phaseest"; "qft6"; "aqft9"; "steane-x/z1"; "steane-x/z2"; "aqft12" ] );
  ]

let table3 ?(monomorphism_limit = 100) ?(jobs = Qcp_util.Task_pool.env_jobs ())
    ?(phases = false) ?(portfolio = false) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Table 3: placement of potentially interesting circuits for different Thresholds\n\
     (cells: runtime (number of subcircuits); last column: whole-circuit placement, no SWAPs)\n\n";
  (* Resolve the circuit names once, then batch every cell of every section
     through one pool mapping before any rendering. *)
  let sections =
    List.map
      (fun (env, circuit_names) ->
        (env, List.filter_map
                (fun name ->
                  Option.map (fun c -> (name, c)) (Catalog.by_name name))
                circuit_names))
      table3_sections
  in
  let specs =
    List.concat_map
      (fun (env, rows) ->
        List.concat_map
          (fun (_, circuit) ->
            List.map
              (fun threshold ->
                let options =
                  { (Options.default ~threshold) with
                    Options.monomorphism_limit }
                in
                (options, env, circuit))
              thresholds)
          rows)
      sections
  in
  let outcomes = ref (batch ~portfolio ~jobs specs) in
  let next_outcome () =
    match !outcomes with
    | [] -> assert false
    | o :: rest ->
      outcomes := rest;
      o
  in
  List.iter
    (fun (env, rows) ->
      let t =
        Text_table.create
          ~title:(Printf.sprintf "Placement with the %d-qubit %s molecule"
                    (Environment.size env) (Environment.name env))
          ("circuit" :: List.map (fun th -> Printf.sprintf "%g" th) thresholds
          @ [ "whole (no swaps)" ])
      in
      let pbuf = Buffer.create 256 in
      List.iter
        (fun (name, circuit) ->
          let cells =
            List.map
              (fun threshold ->
                match next_outcome () with
                | Placer.Placed p ->
                  if phases then
                    Buffer.add_string pbuf
                      (phase_line
                         (Printf.sprintf "%s @ %g" name threshold)
                         p);
                  Printf.sprintf "%.4f sec (%d)"
                    (Placer.runtime_seconds p)
                    (Placer.subcircuit_count p)
                | Placer.Unplaceable _ -> "N/A")
              thresholds
          in
          let whole =
            if Circuit.qubits circuit > Environment.size env then "N/A"
            else begin
              let _, cost = Baselines.whole_best ~reuse_cap:3.0 env circuit in
              fmt_sec (seconds cost)
            end
          in
          Text_table.add_row t ((name :: cells) @ [ whole ]))
        rows;
      Buffer.add_string buf (Text_table.render t);
      Buffer.add_char buf '\n';
      phase_section buf pbuf)
    sections;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let table4 ?(full = false) ?(seed = 2007) ?(jobs = Qcp_util.Task_pool.env_jobs ())
    ?(phases = false) ?(portfolio = false) () =
  let sizes = if full then [ 8; 16; 32; 64; 128; 256; 512; 1024 ] else [ 8; 16; 32; 64; 128 ] in
  let t =
    Text_table.create
      ~title:"Table 4: performance test for circuit placement over chains"
      [
        "# of qubits"; "# of gates"; "hidden stages"; "# of subcircuits";
        "circuit runtime"; "software runtime"; "oracle calls";
      ]
  in
  (* Unlike Tables 2-3 this table reports per-row software wall time, so
     rows go over the pool directly with the clock inside each job (under
     [jobs] > 1 rows time-share cores, which is what a concurrent
     regeneration costs).  Inputs are derived before the fan-out and rows
     render in input order, so everything but the wall-clock column is
     byte-identical at any [jobs]. *)
  let rows =
    List.map
      (fun n ->
        let rng = Qcp_util.Rng.create (seed + n) in
        let circuit, stages = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
        let env = Environment.chain n in
        (* Prewarm the memoized threshold adjacency here so the timed
           region below measures placement, not graph construction. *)
        ignore
          (Environment.connected_adjacency env ~threshold:50.0
            : Qcp_graph.Graph.t option);
        (n, circuit, stages, env))
      sizes
  in
  let rows = Array.of_list rows in
  let results = Array.make (Array.length rows) None in
  Qcp_util.Task_pool.parallel_for
    (Qcp_util.Task_pool.get ())
    ~jobs
    ~body:(fun ~worker:_ i ->
      let _, circuit, _, env = rows.(i) in
      let options = Options.fast ~threshold:50.0 in
      let t0 = Unix.gettimeofday () in
      let outcome =
        if portfolio then Qcp.Portfolio.place options env circuit
        else Placer.place options env circuit
      in
      results.(i) <- Some (outcome, Unix.gettimeofday () -. t0))
    (Array.length rows);
  let pbuf = Buffer.create 256 in
  Array.iteri
    (fun i (n, circuit, stages, _) ->
      match Option.get results.(i) with
      | Placer.Placed p, elapsed ->
        if phases then
          Buffer.add_string pbuf (phase_line (Printf.sprintf "chain %d" n) p);
        Text_table.add_row t
          [
            string_of_int n;
            string_of_int (Circuit.gate_count circuit);
            string_of_int stages;
            string_of_int (Placer.subcircuit_count p);
            Printf.sprintf "%.3f sec" (Placer.runtime_seconds p);
            Printf.sprintf "%.2f sec" elapsed;
            string_of_int p.Placer.stats.Placer.oracle_calls;
          ]
      | Placer.Unplaceable msg, _ ->
        Text_table.add_row t [ string_of_int n; "N/A: " ^ msg ])
    rows;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Text_table.render t);
  phase_section buf pbuf;
  Buffer.contents buf

(* Tables 2-4 back to back, sharing the pool and the cross-run
   registries. *)
let tables234 ?(jobs = Qcp_util.Task_pool.env_jobs ()) ?phases ?portfolio () =
  String.concat "\n"
    [
      table2 ~jobs ?phases ?portfolio ();
      table3 ~jobs ?phases ?portfolio ();
      table4 ~jobs ?phases ?portfolio ();
    ]

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  let env = Molecules.acetyl_chloride in
  String.concat "\n"
    [
      "Figure 1: acetyl chloride interaction graph (delays in 1/10000 s)";
      "";
      Format.asprintf "%a" Environment.pp env;
      Environment.to_dot env;
    ]

let figure2 () =
  String.concat "\n"
    [
      "Figure 2: encoding part of the 3-qubit error correcting code";
      "";
      Qcp_circuit.Pretty.render
        ~wire_labels:(fun q -> Printf.sprintf "%c" (Char.chr (Char.code 'a' + q)))
        Catalog.qec3_encode;
      Format.asprintf "%a" Circuit.pp Catalog.qec3_encode;
    ]

let figure3 () =
  let env = Molecules.trans_crotonic_acid in
  let bonds = Environment.adjacency env ~threshold:100.0 in
  (* Paper Example 4's permutation over M C1 H1 C2 C3 H2 C4. *)
  let perm = [| 1; 3; 4; 6; 5; 2; 0 |] in
  let net = Qcp_route.Bisect_router.route bonds ~perm in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 3 / Example 4: permuting values on the trans-crotonic bond graph\n";
  Buffer.add_string buf "permutation:";
  Array.iteri
    (fun src dst ->
      Buffer.add_string buf
        (Printf.sprintf " %s->%s" (Environment.nucleus env src)
           (Environment.nucleus env dst)))
    perm;
  Buffer.add_char buf '\n';
  let m = Environment.size env in
  let config = ref (Array.init m (fun v -> v)) in
  let show () =
    String.concat " "
      (List.map
         (fun v -> Environment.nucleus env !config.(v))
         (Qcp_util.Listx.range m))
  in
  Buffer.add_string buf (Printf.sprintf "start : %s\n" (show ()));
  List.iteri
    (fun i level ->
      config := Qcp_route.Swap_network.apply [ level ] !config;
      let swaps =
        String.concat " "
          (List.map
             (fun (u, v) ->
               Printf.sprintf "(%s,%s)" (Environment.nucleus env u)
                 (Environment.nucleus env v))
             level)
      in
      Buffer.add_string buf
        (Printf.sprintf "level %d: swap %s -> tokens %s\n" (i + 1) swaps (show ())))
    net;
  Buffer.add_string buf
    (Printf.sprintf "network: %d levels, %d swaps (paper's hand example: 3 levels to sort the halves)\n"
       (Qcp_route.Swap_network.depth net)
       (Qcp_route.Swap_network.swap_count net));
  Buffer.contents buf

let figure4 () =
  let t =
    Text_table.create
      ~title:"Figure 4 / Theorem 1: separability s vs the 1/max-degree bound"
      [ "graph"; "vertices"; "max degree"; "1/k bound"; "measured s" ]
  in
  let add name g =
    Text_table.add_row t
      [
        name;
        string_of_int (Qcp_graph.Graph.n g);
        string_of_int (Qcp_graph.Graph.max_degree g);
        Printf.sprintf "%.3f" (Qcp_graph.Separator.theorem1_bound g);
        Printf.sprintf "%.3f" (Qcp_graph.Separator.separability g);
      ]
  in
  List.iter
    (fun env ->
      let g =
        match Environment.connected_adjacency env ~threshold:1000.0 with
        | Some g -> g
        | None -> Environment.adjacency env ~threshold:Float.infinity
      in
      add (Environment.name env ^ " (fast graph)") g)
    Molecules.all;
  add "chain-12" (Qcp_graph.Generators.path_graph 12);
  add "chain-16" (Qcp_graph.Generators.path_graph 16);
  add "grid-4x4" (Qcp_graph.Generators.grid 4 4);
  add "binary-tree-15" (Qcp_graph.Generators.binary_tree 15);
  add "petersen" (Qcp_graph.Generators.petersen ());
  Text_table.render t

(* ------------------------------------------------------------------ *)
(* NP-completeness demonstration                                       *)
(* ------------------------------------------------------------------ *)

let npc () =
  let t =
    Text_table.create
      ~title:"Section 4: zero-runtime placement iff Hamiltonian cycle"
      [ "graph"; "vertices"; "optimal placement cost"; "has Hamiltonian cycle"; "agree" ]
  in
  let fixtures =
    [
      ("cycle-6", Qcp_graph.Generators.cycle_graph 6);
      ("complete-5", Qcp_graph.Generators.complete 5);
      ("path-6", Qcp_graph.Generators.path_graph 6);
      ("star-6", Qcp_graph.Generators.star 6);
      ("petersen", Qcp_graph.Generators.petersen ());
      ("grid-2x4", Qcp_graph.Generators.grid 2 4);
      ("grid-3x3", Qcp_graph.Generators.grid 3 3);
    ]
  in
  List.iter
    (fun (name, g) ->
      let cost = Qcp.Np_reduction.optimal_cost g in
      let hc = Qcp_graph.Hamilton.cycle g <> None in
      Text_table.add_row t
        [
          name;
          string_of_int (Qcp_graph.Graph.n g);
          Printf.sprintf "%.0f" cost;
          string_of_bool hc;
          string_of_bool ((cost = 0.0) = hc);
        ])
    fixtures;
  Text_table.render t

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let env = Molecules.trans_crotonic_acid in
  let variants =
    let base = Options.default ~threshold:100.0 in
    [
      ("default (paper settings)", base);
      ("no depth-2 lookahead", { base with Options.lookahead = false });
      ("no fine tuning", { base with Options.fine_tune_passes = 0 });
      ("no leaf-target override", { base with Options.leaf_override = false });
      ("naive token router", { base with Options.router = Options.Token });
      ("weighted-channel router", { base with Options.router = Options.Bisect_weighted });
      ("no interaction reuse cap", { base with Options.reuse_cap = None });
      ("sequential-levels timing", { base with Options.model = Timing.Sequential });
      ("commutation pre-pass", { base with Options.commute_prepass = true });
      ("boundary balancing", { base with Options.balance_boundaries = true });
    ]
  in
  let circuits = [ ("phaseest", Catalog.phase_estimation 4); ("qft6", Catalog.qft 6) ] in
  let t =
    Text_table.create
      ~title:"Ablation on trans-crotonic acid (threshold 100)"
      ("variant"
      :: List.concat_map
           (fun (name, _) -> [ name ^ " runtime"; name ^ " swap levels" ])
           circuits)
  in
  List.iter
    (fun (label, options) ->
      let cells =
        List.concat_map
          (fun (_, circuit) ->
            match Placer.place options env circuit with
            | Placer.Placed p ->
              [
                fmt_sec (Placer.runtime_seconds p);
                string_of_int (Placer.swap_depth_total p);
              ]
            | Placer.Unplaceable _ -> [ "N/A"; "-" ])
          circuits
      in
      Text_table.add_row t (label :: cells))
    variants;
  Text_table.render t

(* ------------------------------------------------------------------ *)
(* Fidelity (extension)                                                *)
(* ------------------------------------------------------------------ *)

let fidelity () =
  let t =
    Text_table.create
      ~title:
        "Extension: decoherence-aware fidelity of placed programs (exp(-sum dt/T2))"
      [ "circuit"; "environment"; "runtime"; "analytic fidelity";
        "empirical (dephasing simulation)"; "fidelity of a random placement" ]
  in
  let rng = Qcp_util.Rng.create 41 in
  List.iter
    (fun (name, circuit, env, threshold) ->
      let threshold =
        match threshold with
        | Some th -> th
        | None -> Environment.min_threshold_connected env
      in
      match Placer.place (Options.default ~threshold) env circuit with
      | Placer.Unplaceable _ -> ()
      | Placer.Placed p ->
        let random_placement = Qcp.Baselines.random_placement rng env circuit in
        let empirical =
          (* Density-matrix dephasing simulation; only feasible on small
             molecules (4^m state). *)
          if Environment.size env <= 5 then
            Printf.sprintf "%.4f" (Qcp.Noisy.empirical_fidelity ~input:1 p)
          else "- (too large)"
        in
        Text_table.add_row t
          [
            name;
            Environment.name env;
            fmt_sec (Placer.runtime_seconds p);
            Printf.sprintf "%.4f" (Qcp.Fidelity.estimate p);
            empirical;
            Printf.sprintf "%.4f"
              (Qcp.Fidelity.placement_fidelity env circuit
                 ~placement:random_placement);
          ])
    table2_rows;
  Text_table.render t

(* ------------------------------------------------------------------ *)
(* Architecture comparison (extension)                                 *)
(* ------------------------------------------------------------------ *)

let architectures () =
  let machines =
    let ladder n =
      Environment.of_graph ~name:(Printf.sprintf "tri-ladder-%d" n)
        (Qcp_graph.Graph.of_edges n
           (List.init (n - 1) (fun i -> (i, i + 1))
           @ List.init (n - 2) (fun i -> (i, i + 2))))
    in
    [
      Environment.chain 10;
      Environment.grid 2 5;
      ladder 10;
      Environment.complete_uniform 10;
    ]
  in
  let circuits =
    [
      ("qft6", Catalog.qft 6);
      ("qec5", Catalog.qec5_encode);
      ("ghz8", Qcp_circuit.Library.ghz 8);
      ("adder2", Qcp_circuit.Library.cuccaro_adder 2);
    ]
  in
  let t =
    Text_table.create
      ~title:
        "Extension: architecture comparison (10 qubits, uniform 1 kHz couplings; \
         cells: runtime (subcircuits / swap levels))"
      ("machine" :: List.map fst circuits)
  in
  List.iter
    (fun env ->
      let cells =
        List.map
          (fun (_, circuit) ->
            match Placer.place (Options.default ~threshold:50.0) env circuit with
            | Placer.Placed p ->
              Printf.sprintf "%.4f sec (%d/%d)"
                (Placer.runtime_seconds p)
                (Placer.subcircuit_count p)
                (Placer.swap_depth_total p)
            | Placer.Unplaceable _ -> "N/A")
          circuits
      in
      Text_table.add_row t (Environment.name env :: cells))
    machines;
  Text_table.render t

(* ------------------------------------------------------------------ *)
(* Pulse schedule demo (extension)                                     *)
(* ------------------------------------------------------------------ *)

let schedule_demo () =
  let env = Molecules.trans_crotonic_acid in
  match Placer.place (Options.default ~threshold:100.0) env (Catalog.qft 5) with
  | Placer.Unplaceable msg -> "schedule demo unavailable: " ^ msg
  | Placer.Placed p ->
    String.concat "\n"
      [
        "Extension: compiled pulse schedule of qft5 on trans-crotonic acid";
        "(rows: nuclei; '#': computation pulses, 's': SWAP pulses, '-': idle)";
        "";
        Qcp.Schedule.render p;
      ]

let all () =
  String.concat "\n"
    [
      table1 (); table2 (); table3 (); table4 ();
      figure1 (); figure2 (); figure3 (); figure4 ();
      npc (); ablation (); fidelity (); architectures (); schedule_demo ();
    ]
