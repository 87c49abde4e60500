(* Tests of the scale path: windowed subcircuit formation, hierarchical
   coarsen-place-refine and sparse candidate generation.  The key contract
   is semantic: whatever the window / coarsening / root-cap knobs do to the
   search, a placed program must still implement the source circuit, and
   turning every knob off must leave the classic pipeline bit-identical. *)

module Placer = Qcp.Placer
module Options = Qcp.Options
module Workspace = Qcp.Workspace
module Verify = Qcp.Verify
module Environment = Qcp_env.Environment
module Random_env = Qcp_env.Random_env
module Molecules = Qcp_env.Molecules
module Catalog = Qcp_circuit.Catalog
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Random_circuit = Qcp_circuit.Random_circuit
module Graph = Qcp_graph.Graph
module Generators = Qcp_graph.Generators
module Monomorph = Qcp_graph.Monomorph
module Coarsen = Qcp_graph.Coarsen
module Rng = Qcp_util.Rng

let place_exn ?spill options env circuit =
  match Placer.place ?spill options env circuit with
  | Placer.Placed p -> p
  | Placer.Unplaceable msg -> Alcotest.failf "unexpectedly unplaceable: %s" msg

(* ------------------------------------------------------------------ *)
(* Property suite: windowed and hierarchical placements are semantically
   equivalent to the classic pipeline on random small instances.         *)
(* ------------------------------------------------------------------ *)

(* [Random_circuit.hidden_stages] emits opaque custom gates; the verifier
   needs simulation semantics, so draw from the simulable gate set. *)
let random_simulable_circuit rng ~n ~gates =
  Circuit.make ~qubits:n
    (List.init gates (fun _ ->
         match Rng.int rng 5 with
         | 0 -> Gate.h (Rng.int rng n)
         | 1 -> Gate.rz (Rng.int rng n) (Rng.float rng 6.28)
         | 2 | 3 ->
           let a = Rng.int rng n in
           let b = (a + 1 + Rng.int rng (n - 1)) mod n in
           Gate.cnot a b
         | _ ->
           let a = Rng.int rng n in
           let b = (a + 1 + Rng.int rng (n - 1)) mod n in
           Gate.zz a b (Rng.float rng 3.14)))

let test_random_equivalence () =
  for seed = 0 to 19 do
    let rng = Rng.create seed in
    let env = Random_env.molecule rng ~n:(8 + (seed mod 5)) in
    let threshold = Random_env.interesting_threshold rng env in
    let circuit = random_simulable_circuit rng ~n:4 ~gates:24 in
    let classic = Options.default ~threshold in
    let variants =
      [
        ("windowed", { classic with Options.window = 3 });
        ( "windowed+hier",
          {
            classic with
            Options.window = 4;
            coarsen = true;
            root_cap = Some 8;
          } );
      ]
    in
    match Placer.place classic env circuit with
    | Placer.Unplaceable _ ->
      (* A single interaction pair is unalignable at this threshold; the
         refusal condition is pattern-independent, so the scale paths must
         agree. *)
      List.iter
        (fun (name, options) ->
          match Placer.place options env circuit with
          | Placer.Unplaceable _ -> ()
          | Placer.Placed _ ->
            Alcotest.failf "seed %d: %s placed an unplaceable instance" seed
              name)
        variants
    | Placer.Placed reference ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: classic equivalent" seed)
        true
        (Verify.equivalent reference);
      List.iter
        (fun (name, options) ->
          let p = place_exn options env circuit in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %s equivalent" seed name)
            true (Verify.equivalent p))
        variants
  done

(* ------------------------------------------------------------------ *)
(* Classic path bit-identity when every scale knob is off.              *)
(* ------------------------------------------------------------------ *)

let test_classic_bit_identity () =
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.phase_estimation 4 in
  let defaults = Options.default ~threshold:100.0 in
  let explicit =
    {
      defaults with
      Options.window = 1;
      coarsen = false;
      root_cap = None;
    }
  in
  let p1 = place_exn defaults env circuit in
  let p2 = place_exn explicit env circuit in
  Alcotest.(check (list (array int)))
    "identical placements" (Placer.placements p1) (Placer.placements p2);
  Alcotest.(check bool)
    "identical runtime" true
    (Float.equal (Placer.runtime p1) (Placer.runtime p2))

(* ------------------------------------------------------------------ *)
(* Witness stapling: every stage's witness is a valid embedding of the
   stage's interaction graph.                                           *)
(* ------------------------------------------------------------------ *)

let test_windowed_witnesses_valid () =
  let env = Molecules.trans_crotonic_acid in
  let adjacency = Environment.adjacency env ~threshold:100.0 in
  let circuit = Catalog.phase_estimation 4 in
  match Workspace.split_windowed ~window:8 ~adjacency circuit with
  | Error msg -> Alcotest.failf "windowed split failed: %s" msg
  | Ok stages ->
    List.iter
      (fun (sub, witness) ->
        match witness with
        | None -> Alcotest.fail "stage with two-qubit gates lacks a witness"
        | Some w ->
          Alcotest.(check bool)
            "witness embeds the stage pattern" true
            (Monomorph.check
               ~pattern:(Circuit.interaction_graph sub)
               ~target:adjacency w))
      (List.filter (fun (sub, _) -> Circuit.two_qubit_count sub > 0) stages)

(* ------------------------------------------------------------------ *)
(* Structural validity of the full scale path on a grid too large for
   the simulator: gate order per qubit, injectivity, fast edges, valid
   swap levels, and jobs-independence.                                  *)
(* ------------------------------------------------------------------ *)

let per_qubit_subsequences circuit =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun gate ->
      List.iter
        (fun q ->
          let prev = Option.value (Hashtbl.find_opt tbl q) ~default:[] in
          Hashtbl.replace tbl q (gate :: prev))
        (Gate.qubits gate))
    (Circuit.gates circuit);
  tbl

let check_structure source p =
  let compute_circuits =
    List.filter_map
      (function
        | Placer.Compute { circuit; _ } -> Some circuit
        | Placer.Permute _ -> None)
      p.Placer.stages
  in
  (* The emitted gate stream is a linearization of the dependency DAG: per
     qubit, the gate subsequence must match the source exactly. *)
  let emitted =
    Circuit.make
      ~qubits:(Circuit.qubits source)
      (List.concat_map Circuit.gates compute_circuits)
  in
  Alcotest.(check int)
    "gate count conserved"
    (Circuit.gate_count source)
    (Circuit.gate_count emitted);
  let expected = per_qubit_subsequences source in
  let actual = per_qubit_subsequences emitted in
  Hashtbl.iter
    (fun q gates ->
      let got = Option.value (Hashtbl.find_opt actual q) ~default:[] in
      Alcotest.(check bool)
        (Printf.sprintf "qubit %d order preserved" q)
        true
        (List.length gates = List.length got
        && List.for_all2 Gate.equal gates got))
    expected;
  List.iter
    (fun placement ->
      let sorted = Array.to_list placement |> List.sort_uniq Int.compare in
      Alcotest.(check int)
        "injective" (Array.length placement) (List.length sorted))
    (Placer.placements p);
  List.iter
    (function
      | Placer.Compute { placement; circuit } ->
        List.iter
          (fun gate ->
            match Gate.qubits gate with
            | [ a; b ] ->
              Alcotest.(check bool)
                "on fast edge" true
                (Graph.mem_edge p.Placer.adjacency placement.(a) placement.(b))
            | _ -> ())
          (Circuit.gates circuit)
      | Placer.Permute net ->
        Alcotest.(check bool)
          "valid swap levels" true
          (Qcp_route.Swap_network.is_valid p.Placer.adjacency net))
    p.Placer.stages

let test_grid_scale_structure () =
  let env = Environment.grid 6 6 in
  let rng = Rng.create 7 in
  let circuit =
    Random_circuit.hidden_stages_custom rng ~n:12 ~stages:3 ~gates_per_stage:40
  in
  let options = Options.scale ~threshold:50.0 in
  let p = place_exn { options with Options.jobs = 0 } env circuit in
  check_structure circuit p;
  (* The scale path must stay bit-identical across jobs settings. *)
  let p2 = place_exn { options with Options.jobs = 2 } env circuit in
  Alcotest.(check (list (array int)))
    "jobs-independent placements" (Placer.placements p) (Placer.placements p2);
  Alcotest.(check bool)
    "jobs-independent runtime" true
    (Float.equal (Placer.runtime p) (Placer.runtime p2));
  (* Scale-phase telemetry rides along in the per-run registry. *)
  Alcotest.(check bool)
    "window-fill histogram recorded" true
    (Qcp_obs.Metrics.find p.Placer.metrics "placer.scale.window_fill" <> None)

(* ------------------------------------------------------------------ *)
(* Sparse candidate generation: root_cap results are subsequences.      *)
(* ------------------------------------------------------------------ *)

let is_subsequence ~of_:full sub =
  let rec scan sub full =
    match (sub, full) with
    | [], _ -> true
    | _, [] -> false
    | s :: srest, f :: frest ->
      if s = f then scan srest frest else scan sub frest
  in
  scan sub full

let test_root_cap_subsequence () =
  let pattern = Generators.path_graph 4 in
  let target = Generators.petersen () in
  let full = Monomorph.enumerate ~limit:1000 ~pattern ~target () in
  let capped_wide =
    Monomorph.enumerate ~limit:1000 ~root_cap:100 ~pattern ~target ()
  in
  Alcotest.(check (list (array int)))
    "large cap is the identity" full capped_wide;
  let capped_one =
    Monomorph.enumerate ~limit:1000 ~root_cap:1 ~pattern ~target ()
  in
  Alcotest.(check bool) "cap 1 still finds mappings" true (capped_one <> []);
  Alcotest.(check bool)
    "cap 1 is a subsequence" true
    (is_subsequence ~of_:full capped_one);
  (* Determinism across jobs. *)
  let capped_par =
    Monomorph.enumerate ~limit:1000 ~root_cap:3 ~jobs:4 ~pattern ~target ()
  in
  let capped_seq =
    Monomorph.enumerate ~limit:1000 ~root_cap:3 ~pattern ~target ()
  in
  Alcotest.(check (list (array int)))
    "root_cap deterministic at any jobs" capped_seq capped_par

(* A per-slot node budget cuts the capped enumeration at the first slot
   that runs out: the result is a prefix of the unbudgeted capped list,
   the same at any jobs, and a budget no slot reaches changes nothing. *)
let test_root_cap_slot_budget () =
  let pattern = Generators.path_graph 5 in
  let target = Generators.petersen () in
  let enumerate ?slot_budget jobs =
    Monomorph.enumerate ~limit:1000 ~root_cap:4 ?slot_budget ~jobs ~pattern
      ~target ()
  in
  let capped = enumerate 1 in
  let rec is_prefix l full =
    match (l, full) with
    | [], _ -> true
    | x :: l, y :: full -> x = y && is_prefix l full
    | _ :: _, [] -> false
  in
  let cut = ref false in
  List.iter
    (fun slot_budget ->
      let seq = enumerate ~slot_budget 1 in
      let label what = Printf.sprintf "slot budget %d %s" slot_budget what in
      Alcotest.(check bool) (label "is a prefix") true (is_prefix seq capped);
      Alcotest.(check (list (array int)))
        (label "deterministic at any jobs") seq
        (enumerate ~slot_budget 3);
      if List.length seq < List.length capped then cut := true)
    [ 0; 1; 3; 7; 20; 1_000 ];
  Alcotest.(check bool) "small budgets cut the list" true !cut;
  Alcotest.(check (list (array int)))
    "an unreached budget is the identity" capped
    (enumerate ~slot_budget:1_000_000 1)

(* The 16x16 circuit of seed 903 + 104729 once spent 100-130 s in a single
   region enumeration: 45 active qubits on a 180-vertex region, each of
   the 32 root slots searched to exhaustion, the largest for about 10^9
   nodes.  The per-slot budget ends that search with what it found, so the
   circuit places in a fraction of a second; the wall-clock bound is two
   orders of magnitude loose and only catches the tail coming back.  The
   oracle's work counters ride in the per-run registry. *)
let test_enumeration_tail () =
  let circuit =
    Random_circuit.hidden_stages_custom
      (Rng.create (903 + 104729))
      ~n:256 ~stages:4 ~gates_per_stage:6400
  in
  let env = Environment.grid 16 16 in
  let options = Options.scale ~threshold:50.0 in
  let t0 = Unix.gettimeofday () in
  let p = place_exn { options with Options.jobs = 0 } env circuit in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "placed in %.2f s" wall)
    true (wall < 30.0);
  check_structure circuit p;
  let p2 = place_exn { options with Options.jobs = 2 } env circuit in
  Alcotest.(check (list (array int)))
    "jobs-independent placements" (Placer.placements p) (Placer.placements p2);
  let counter name =
    match Qcp_obs.Metrics.find p.Placer.metrics name with
    | Some (Qcp_obs.Metrics.Counter n) -> n
    | _ -> Alcotest.failf "%s missing from the run registry" name
  in
  Alcotest.(check bool)
    "oracle nodes counted" true
    (counter "placer.oracle_nodes" > 0);
  Alcotest.(check bool)
    "oracle cut-offs counted" true
    (counter "placer.oracle_exhausted" > 0)

(* The same budget holds on the classic full-graph enumeration that the
   scale path falls back to when a region declines.  The 10x10 circuit of
   seed 4242 + 104729 * 107 (the benchmark pool's entry 107 at smoke size)
   lands there, and unbudgeted it did not finish in 20 s; budgeted,
   it places in about 0.1 s.  The wall-clock bound only catches the tail
   coming back. *)
let test_fallback_budget () =
  let circuit =
    Random_circuit.hidden_stages_custom
      (Rng.create (4242 + (104729 * 107)))
      ~n:100 ~stages:4 ~gates_per_stage:2_500
  in
  let env = Environment.grid 10 10 in
  let options = { (Options.scale ~threshold:50.0) with Options.jobs = 0 } in
  let t0 = Unix.gettimeofday () in
  let p = place_exn options env circuit in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "placed in %.2f s" wall)
    true (wall < 30.0);
  check_structure circuit p

(* Table 4's N = 128 chain (seed 2007 + 128).  Its stages are paths that
   nearly fill the chain, so no embedding starts at any of the 32
   degree-similar first images the scale options keep, and the path-target
   oracle proves each stage alignable without a witness.  The capped
   search must fall back to a budgeted search over every first image
   rather than refuse the stage.  The runtime pins the placement. *)
let test_capped_chain128 () =
  let n = 128 in
  let circuit, _ = Random_circuit.hidden_stages (Rng.create (2007 + n)) ~n in
  let env = Environment.chain n in
  let p =
    place_exn { (Options.scale ~threshold:50.0) with Options.jobs = 0 } env
      circuit
  in
  check_structure circuit p;
  Alcotest.(check (float 0.0)) "runtime units" 27_480.0 (Placer.runtime p)

(* Whatever places uncapped also places capped, on chains (paths fill the
   target, the case above) and grids, under the classic and the windowed
   coarsened path, at the smallest caps. *)
let test_capped_places_what_uncapped_places () =
  for seed = 0 to 29 do
    let rng = Rng.create (500 + seed) in
    let n = [| 8; 12; 16; 24; 32 |].(seed mod 5) in
    let circuit, _ = Random_circuit.hidden_stages rng ~n in
    let env =
      if seed mod 2 = 0 then Environment.chain n
      else Environment.grid 4 (n / 4)
    in
    let fast = { (Options.fast ~threshold:50.0) with Options.jobs = 0 } in
    match Placer.place fast env circuit with
    | Placer.Unplaceable _ -> ()
    | Placer.Placed _ ->
      let root_cap = Some (1 + (seed mod 3)) in
      List.iter
        (fun (label, options) ->
          match Placer.place options env circuit with
          | Placer.Placed p -> check_structure circuit p
          | Placer.Unplaceable msg ->
            Alcotest.failf "seed %d, %s, root_cap %d: %s" seed label
              (Option.get root_cap) msg)
        [
          ("fast", { fast with Options.root_cap });
          ( "scale",
            { (Options.scale ~threshold:50.0) with Options.jobs = 0; root_cap }
          );
        ]
  done

let test_embeds_with_budget () =
  let target = Generators.petersen () in
  let inc = Monomorph.Incremental.create ~qubits:4 ~target in
  (match Monomorph.Incremental.embeds_with ~budget:0 inc (0, 1) with
  | None -> ()
  | Some _ -> Alcotest.fail "budget 0 must exhaust before finding a witness");
  match Monomorph.Incremental.embeds_with inc (0, 1) with
  | Some w ->
    Alcotest.(check bool)
      "witness valid" true
      (Monomorph.check ~pattern:(Graph.of_edges 4 [ (0, 1) ]) ~target w)
  | None -> Alcotest.fail "unbounded query must find an embedding"

(* ------------------------------------------------------------------ *)
(* Coarsening: level structure and region selection.                    *)
(* ------------------------------------------------------------------ *)

let test_coarsen_grid () =
  let g = Generators.grid 8 8 in
  let hier = Coarsen.build ~coarsest:8 g in
  Alcotest.(check bool) "at least two levels" true (Coarsen.levels hier >= 2);
  Alcotest.(check bool)
    "coarsest level shrank" true
    (Coarsen.coarsest_size hier < Graph.n g);
  let region = Coarsen.select_region hier ~seeds:[ 0; 1 ] ~capacity:10 in
  Alcotest.(check bool) "region covers capacity" true (List.length region >= 10);
  let sorted = List.sort_uniq Int.compare region in
  Alcotest.(check int) "region distinct" (List.length region) (List.length sorted);
  List.iter
    (fun v ->
      Alcotest.(check bool) "region in range" true (v >= 0 && v < Graph.n g))
    region;
  let region2 = Coarsen.select_region hier ~seeds:[ 0; 1 ] ~capacity:10 in
  Alcotest.(check (list int)) "region deterministic" region region2;
  (* A capacity beyond the base graph returns every vertex. *)
  let all = Coarsen.select_region hier ~seeds:[ 0 ] ~capacity:1000 in
  Alcotest.(check int) "full capacity covers the graph" (Graph.n g)
    (List.length all)

(* ------------------------------------------------------------------ *)
(* Spill mode: streamed stages are bit-identical to the materialized
   run, the summary agrees with the accessors, and the whole
   reconstruction still implements the source circuit.                  *)
(* ------------------------------------------------------------------ *)

(* Rebuild a stage list from spill events (they arrive in stage order). *)
let collect_spill () =
  let events = ref [] in
  let sink = Placer.Spill.callback (fun e -> events := e :: !events) in
  let stages () =
    List.rev_map
      (function
        | Placer.Spill.Stage { placement; circuit; _ } ->
          Placer.Compute { placement; circuit }
        | Placer.Spill.Network { network; _ } -> Placer.Permute network)
      !events
  in
  (sink, stages)

let check_spill_matches options =
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.phase_estimation 4 in
  let reference = place_exn options env circuit in
  let sink, spilled_stages = collect_spill () in
  let spilled =
    match Placer.place ~spill:sink options env circuit with
    | Placer.Placed p -> p
    | Placer.Unplaceable msg -> Alcotest.failf "spilled run unplaceable: %s" msg
  in
  (* The streamed stages are the materialized run's, bit for bit. *)
  let same_stage a b =
    match (a, b) with
    | ( Placer.Compute { placement = p1; circuit = c1 },
        Placer.Compute { placement = p2; circuit = c2 } ) ->
      p1 = p2 && Circuit.equal c1 c2
    | Placer.Permute n1, Placer.Permute n2 -> n1 = n2
    | _ -> false
  in
  let streamed = spilled_stages () in
  Alcotest.(check int)
    "same stage count"
    (List.length reference.Placer.stages)
    (List.length streamed);
  List.iter2
    (fun a b -> Alcotest.(check bool) "same stage" true (same_stage a b))
    reference.Placer.stages streamed;
  (* The program itself carries only the summary... *)
  Alcotest.(check (list (array int))) "no materialized placements" []
    (Placer.placements spilled);
  Alcotest.(check bool) "summary present" true (spilled.Placer.spilled <> None);
  (* ...and the summary-backed accessors agree with the reference. *)
  Alcotest.(check int) "subcircuit count"
    (Placer.subcircuit_count reference)
    (Placer.subcircuit_count spilled);
  Alcotest.(check int) "swap stage count"
    (Placer.swap_stage_count reference)
    (Placer.swap_stage_count spilled);
  Alcotest.(check int) "swap depth"
    (Placer.swap_depth_total reference)
    (Placer.swap_depth_total spilled);
  Alcotest.(check int) "swap count"
    (Placer.swap_count_total reference)
    (Placer.swap_count_total spilled);
  Alcotest.(check (option (array int))) "initial placement"
    (Placer.initial_placement reference)
    (Placer.initial_placement spilled);
  Alcotest.(check (option (array int))) "final placement"
    (Placer.final_placement reference)
    (Placer.final_placement spilled);
  Alcotest.(check bool) "runtime matches" true
    (Float.equal (Placer.runtime reference) (Placer.runtime spilled));
  (* The reconstruction is a faithful program: graft the streamed stages
     back and check semantic equivalence against the source. *)
  let reconstructed = { reference with Placer.stages = streamed } in
  Alcotest.(check bool) "reconstruction equivalent" true
    (Verify.equivalent reconstructed)

let test_spill_matches_windowed () =
  check_spill_matches { (Options.fast ~threshold:100.0) with Options.window = 8 }

(* The paper's greedy split (window 1) with lookahead and fine tuning. *)
let test_spill_matches_default () =
  check_spill_matches (Options.default ~threshold:100.0)

(* Splitting and placing interleave under spill; the split phase gauge
   still gets the splitter's own share of the wall time. *)
let test_spill_split_phase () =
  let env = Environment.grid 5 5 in
  let circuit =
    Random_circuit.hidden_stages_custom (Rng.create 11) ~n:10 ~stages:3
      ~gates_per_stage:200
  in
  let options = Options.fast ~threshold:50.0 in
  let armed = Qcp_obs.Metrics.enabled () in
  Qcp_obs.Metrics.set_enabled true;
  let p =
    Fun.protect
      ~finally:(fun () -> Qcp_obs.Metrics.set_enabled armed)
      (fun () -> place_exn ~spill:Placer.Spill.null options env circuit)
  in
  Alcotest.(check bool) "stages were spilled" true (p.Placer.spilled <> None);
  match List.assoc_opt "split" (Placer.phase_seconds p) with
  | Some seconds ->
    Alcotest.(check bool) "split phase above zero" true (seconds > 0.0)
  | None -> Alcotest.fail "no split phase gauge"

let test_spill_jobs_identity () =
  let env = Environment.grid 5 5 in
  let rng = Rng.create 11 in
  let circuit =
    Random_circuit.hidden_stages_custom rng ~n:10 ~stages:2 ~gates_per_stage:30
  in
  let base = Options.scale ~threshold:50.0 in
  let run jobs =
    let sink, stages = collect_spill () in
    match Placer.place ~spill:sink { base with Options.jobs = jobs } env circuit with
    | Placer.Placed p -> (p, stages ())
    | Placer.Unplaceable msg -> Alcotest.failf "jobs %d unplaceable: %s" jobs msg
  in
  let p0, s0 = run 0 in
  let p2, s2 = run 2 in
  Alcotest.(check int) "same stage count" (List.length s0) (List.length s2);
  List.iter2
    (fun a b ->
      match (a, b) with
      | ( Placer.Compute { placement = x; _ },
          Placer.Compute { placement = y; _ } ) ->
        Alcotest.(check (array int)) "same placement" x y
      | Placer.Permute _, Placer.Permute _ -> ()
      | _ -> Alcotest.fail "stage kinds diverge across jobs")
    s0 s2;
  Alcotest.(check bool) "same runtime" true
    (Float.equal (Placer.runtime p0) (Placer.runtime p2))

let test_spill_file () =
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.qft 5 in
  let path = Filename.temp_file "qcp_spill" ".jsonl" in
  let options = { (Options.fast ~threshold:100.0) with Options.window = 8 } in
  let p = place_exn ~spill:(Placer.Spill.file path) options env circuit in
  let lines = ref 0 in
  let ic = open_in path in
  (try
     while true do
       ignore (input_line ic : string);
       incr lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "one JSON line per stage"
    (Placer.subcircuit_count p + Placer.swap_stage_count p)
    !lines

(* A sink is closed exactly once whichever way the run ends: placed,
   refused before any stage (too wide, no fast interaction), aborted by
   its deadline, or aborted by an exception out of [emit]. *)
let test_spill_close_once () =
  let env = Molecules.trans_crotonic_acid in
  let circuit = Catalog.phase_estimation 4 in
  let closes_after ?deadline options env circuit =
    let closes = ref 0 in
    let sink =
      { Placer.Spill.emit = ignore; close = (fun () -> incr closes) }
    in
    ignore
      (Placer.place ?deadline ~spill:sink options env circuit : Placer.outcome);
    !closes
  in
  let check label expected actual =
    Alcotest.(check int) (label ^ ": closed once") expected actual
  in
  check "placed" 1
    (closes_after (Options.default ~threshold:100.0) env circuit);
  check "circuit wider than the environment" 1
    (closes_after (Options.default ~threshold:100.0) env (Catalog.qft 8));
  check "no fast interaction" 1
    (closes_after (Options.default ~threshold:1.0) env circuit);
  check "deadline abort" 1
    (closes_after ~deadline:neg_infinity (Options.default ~threshold:100.0)
       env circuit);
  let closes = ref 0 in
  let sink =
    {
      Placer.Spill.emit = (fun _ -> failwith "sink full");
      close = (fun () -> incr closes);
    }
  in
  (match
     Placer.place ~spill:sink (Options.default ~threshold:100.0) env circuit
   with
  | _ -> Alcotest.fail "the emit exception did not abort the run"
  | exception Failure _ -> ());
  check "emit exception" 1 !closes

let suite =
  [
    Alcotest.test_case "random instances equivalent" `Slow
      test_random_equivalence;
    Alcotest.test_case "classic bit-identity" `Quick test_classic_bit_identity;
    Alcotest.test_case "windowed witnesses valid" `Quick
      test_windowed_witnesses_valid;
    Alcotest.test_case "grid scale structure" `Quick test_grid_scale_structure;
    Alcotest.test_case "root-cap subsequence" `Quick test_root_cap_subsequence;
    Alcotest.test_case "root-cap slot budget" `Quick test_root_cap_slot_budget;
    Alcotest.test_case "enumeration tail places in seconds" `Quick
      test_enumeration_tail;
    Alcotest.test_case "classic fallback is budgeted" `Quick
      test_fallback_budget;
    Alcotest.test_case "capped search places table 4 chain128" `Quick
      test_capped_chain128;
    Alcotest.test_case "capped places what uncapped places" `Quick
      test_capped_places_what_uncapped_places;
    Alcotest.test_case "embeds-with budget" `Quick test_embeds_with_budget;
    Alcotest.test_case "coarsen grid" `Quick test_coarsen_grid;
    Alcotest.test_case "spill matches windowed" `Quick
      test_spill_matches_windowed;
    Alcotest.test_case "spill at default window matches" `Quick
      test_spill_matches_default;
    Alcotest.test_case "spill split phase timed" `Quick test_spill_split_phase;
    Alcotest.test_case "spill jobs identity" `Quick test_spill_jobs_identity;
    Alcotest.test_case "spill file sink" `Quick test_spill_file;
    Alcotest.test_case "spill sink closes once" `Quick test_spill_close_once;
  ]
