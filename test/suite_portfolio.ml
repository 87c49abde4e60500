(* Property tests for the strategy portfolio: every entry runs on its own,
   so the reduce's winner must equal the best of the entries run alone,
   be bit-identical at any [jobs] value, and never be an entry whose
   replayed runtime is not finite.  The solo oracle below calls
   [Placer.place] and [Annealer] directly over its own copy of the option
   tweaks: it shares no code with the reduce. *)

module Placer = Qcp.Placer
module Options = Qcp.Options
module Portfolio = Qcp.Portfolio
module Incumbent = Qcp.Incumbent

let options_for ~seed threshold =
  (* Alternate option profiles so the sweep exercises the fast and the
     paper-default pipelines. *)
  match seed mod 2 with
  | 0 -> Options.fast ~threshold
  | _ -> Options.default ~threshold

(* [jobs] pinned explicitly everywhere: CI runs the suite under QCP_JOBS 0
   and 2 and these properties must not depend on the ambient value. *)
let portfolio_options ~seed ~jobs threshold =
  { (options_for ~seed threshold) with Options.portfolio = true; jobs }

let instance seed =
  let rng = Qcp_util.Rng.create (3100 + seed) in
  let n = 4 + Qcp_util.Rng.int rng 5 in
  let env = Qcp_env.Random_env.molecule rng ~n in
  let threshold = Qcp_env.Random_env.interesting_threshold rng env in
  let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
  (env, threshold, circuit)

(* The solo result of one entry: its stages and replayed runtime, or
   [None] when it cannot place the instance at a finite runtime. *)
type solo = { name : string; stages : Placer.stage list; runtime : float }

let classic_solo name options env circuit =
  ( name,
    match Placer.place options env circuit with
    | Placer.Unplaceable _ -> None
    | Placer.Placed p ->
      let runtime = Placer.runtime p in
      if Float.is_finite runtime then
        Some { name; stages = p.Placer.stages; runtime }
      else None )

(* Every entry run alone, in canonical order, paired with its name. *)
let solo_runs options env circuit =
  let greedy =
    { options with Options.lookahead = false; balance_boundaries = false }
  in
  let lookahead =
    { options with Options.lookahead = true; balance_boundaries = false }
  in
  let boundary =
    { options with Options.lookahead = true; balance_boundaries = true }
  in
  let scale =
    {
      options with
      Options.lookahead = false;
      balance_boundaries = false;
      window = (if options.Options.window = 1 then 64 else options.Options.window);
      coarsen = true;
      root_cap =
        (match options.Options.root_cap with None -> Some 32 | c -> c);
    }
  in
  let annealer =
    let placement, cost =
      Qcp.Annealer.solve_restarts ~restarts:2 ~jobs:0 ~iterations:10_000
        ~model:options.Options.model ?reuse_cap:options.Options.reuse_cap env
        circuit
    in
    ( "annealer",
      if Float.is_finite cost then
        Some
          {
            name = "annealer";
            stages = [ Placer.Compute { placement; circuit } ];
            runtime = cost;
          }
      else None )
  in
  [
      classic_solo "greedy" greedy env circuit;
      classic_solo "lookahead" lookahead env circuit;
      classic_solo "boundary" boundary env circuit;
      annealer;
    classic_solo "scale" scale env circuit;
  ]

let solos options env circuit =
  List.filter_map snd (solo_runs options env circuit)

(* The earliest solo achieving the strict minimum runtime. *)
let best_solo solos =
  List.fold_left
    (fun acc s ->
      match acc with
      | Some b when s.runtime >= b.runtime -> acc
      | _ -> Some s)
    None solos

let check_against_solos ~label report solos =
  match best_solo solos with
  | None -> Alcotest.failf "%s: no solo entry placed" label
  | Some best ->
    List.iter
      (fun s ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: winner <= solo %s" label s.name)
          true
          (report.Portfolio.runtime <= s.runtime))
      solos;
    (* Exact equality: the winner *is* the best solo run, stage for
       stage. *)
    Alcotest.(check string)
      (Printf.sprintf "%s: winner is the best solo" label)
      best.name report.Portfolio.winner;
    Alcotest.(check bool)
      (Printf.sprintf "%s: winner runtime equals best solo" label)
      true
      (report.Portfolio.runtime = best.runtime);
    Alcotest.(check bool)
      (Printf.sprintf "%s: winner stages equal its solo run" label)
      true
      (report.Portfolio.program.Placer.stages = best.stages)

(* (a) The winner equals the best entry run alone: name, runtime and
   stages. *)
let test_winner_never_worse () =
  for seed = 1 to 50 do
    let env, threshold, circuit = instance seed in
    let options = portfolio_options ~seed ~jobs:0 threshold in
    match Portfolio.run options env circuit with
    | Error msg -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed msg)
    | Ok report ->
      check_against_solos
        ~label:(Printf.sprintf "seed %d" seed)
        report (solos options env circuit)
  done

(* (b) The winner — name, stages and runtime — is bit-identical whether
   the entries run sequentially or over two pool domains. *)
let test_jobs_invariant () =
  for seed = 1 to 50 do
    let env, threshold, circuit = instance seed in
    let reduce jobs =
      match
        Portfolio.run (portfolio_options ~seed ~jobs threshold) env circuit
      with
      | Error msg -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed msg)
      | Ok report -> report
    in
    let a = reduce 0 and b = reduce 2 in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: same winner" seed)
      a.Portfolio.winner b.Portfolio.winner;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: identical stages" seed)
      true
      (a.Portfolio.program.Placer.stages = b.Portfolio.program.Placer.stages);
    (* Exact float equality on purpose: both schedules must run the same
       float operations for the winning pipeline. *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: identical runtime" seed)
      true
      (a.Portfolio.runtime = b.Portfolio.runtime)
  done

(* (c) On a chain the annealer may place a pair on an absent coupling,
   which replays to [inf] or NaN; such an entry is infeasible and never
   wins.  Table 4's chain rows (seed 2007 + n, [Options.fast] at
   threshold 50): chain:16 replays the annealer to NaN. *)
let test_non_finite_never_wins () =
  List.iter
    (fun n ->
      let rng = Qcp_util.Rng.create (2007 + n) in
      let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
      let env = Qcp_env.Environment.chain n in
      let options = { (Options.fast ~threshold:50.0) with Options.jobs = 0 } in
      let label = Printf.sprintf "chain:%d" n in
      match Portfolio.run options env circuit with
      | Error msg -> Alcotest.failf "%s: %s" label msg
      | Ok report ->
        Alcotest.(check bool)
          (label ^ ": finite runtime")
          true
          (Float.is_finite report.Portfolio.runtime);
        List.iter
          (fun e ->
            match e.Portfolio.status with
            | Portfolio.Completed r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s completed at a finite runtime" label
                   e.Portfolio.strategy)
                true (Float.is_finite r)
            | Portfolio.Infeasible _ -> ())
          report.Portfolio.entries;
        check_against_solos ~label report (solos options env circuit))
    [ 8; 16 ]

(* (d) Each entry of the reduce degenerates to running that strategy
   alone: same name in canonical order, [Completed] at exactly its solo
   runtime, or [Infeasible] exactly when the solo run places nothing at a
   finite runtime. *)
let test_single_strategy_degenerates () =
  for seed = 1 to 25 do
    let env, threshold, circuit = instance seed in
    let options = portfolio_options ~seed ~jobs:0 threshold in
    match Portfolio.run options env circuit with
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
    | Ok report ->
      let runs = solo_runs options env circuit in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: entries in canonical order" seed)
        (List.map fst runs)
        (List.map (fun e -> e.Portfolio.strategy) report.Portfolio.entries);
      List.iter2
        (fun e (name, solo) ->
          match (e.Portfolio.status, solo) with
          | Portfolio.Completed r, Some s ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: %s entry equals its solo run" seed
                 name)
              true (r = s.runtime)
          | Portfolio.Infeasible _, None -> ()
          | Portfolio.Completed _, None | Portfolio.Infeasible _, Some _ ->
            Alcotest.failf "seed %d: %s feasibility disagrees with its solo run"
              seed name)
        report.Portfolio.entries runs
  done

(* [Portfolio.place_batch] is the one batch loop.  Classic and portfolio
   specs mixed in one batch must come out in input order, equal to
   per-spec [Portfolio.place] calls at batch jobs 0 and 2, and a classic
   spec's [Portfolio.place] must equal [Placer.place] stage for stage.
   Specs' own [jobs] 0 and 2 exercise the pool's nested-use guard under a
   parallel batch.  Each pass builds its specs afresh, so no pass hits
   routes an earlier one inserted; within a pass, a seed's specs share one
   environment, so a parallel batch races runs over one empty route
   table. *)
let test_place_batch_identical () =
  let specs () =
    List.concat_map
      (fun seed ->
        let env, threshold, circuit = instance (400 + seed) in
        let classic = options_for ~seed threshold in
        [
          ({ classic with Options.jobs = 0 }, env, circuit);
          ({ classic with Options.jobs = 2 }, env, circuit);
          ( portfolio_options ~seed ~jobs:(2 * (seed mod 2)) threshold,
            env,
            circuit );
        ])
      [ 1; 2; 3; 4 ]
  in
  let same label a b =
    match (a, b) with
    | Placer.Placed a, Placer.Placed b ->
      Alcotest.(check bool) (label ^ ": identical stages") true
        (a.Placer.stages = b.Placer.stages);
      Alcotest.(check bool) (label ^ ": identical runtime") true
        (Placer.runtime a = Placer.runtime b)
    | Placer.Unplaceable a, Placer.Unplaceable b ->
      Alcotest.(check string) (label ^ ": same failure") a b
    | _ -> Alcotest.failf "%s: placeability disagrees" label
  in
  let sequential =
    List.map (fun (o, e, c) -> Portfolio.place o e c) (specs ())
  in
  List.iteri
    (fun i ((o, e, c), outcome) ->
      if not o.Options.portfolio then
        same (Printf.sprintf "spec %d against Placer.place" i)
          (Placer.place o e c) outcome)
    (List.combine (specs ()) sequential);
  List.iter
    (fun batch_jobs ->
      let batch = Portfolio.place_batch ~jobs:batch_jobs (specs ()) in
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: one outcome per spec" batch_jobs)
        (List.length sequential) (List.length batch);
      List.iteri
        (fun i (reference, outcome) ->
          same (Printf.sprintf "batch jobs %d, spec %d" batch_jobs i)
            reference outcome)
        (List.combine sequential batch))
    [ 0; 2 ]

(* An expired deadline aborts the reduce with exactly the placer's
   deadline message. *)
let test_expired_deadline () =
  let env, threshold, circuit = instance 7 in
  match
    Portfolio.place ~deadline:neg_infinity
      (portfolio_options ~seed:7 ~jobs:0 threshold)
      env circuit
  with
  | Placer.Unplaceable msg ->
    Alcotest.(check string) "deadline message" Placer.msg_deadline msg
  | Placer.Placed _ -> Alcotest.fail "placed past an expired deadline"

let test_incumbent_cell () =
  let cell = Incumbent.make infinity in
  Alcotest.(check bool) "starts at init" true (Incumbent.get cell = infinity);
  Incumbent.submit cell 42.5;
  Alcotest.(check (float 0.0)) "lowers" 42.5 (Incumbent.get cell);
  Incumbent.submit cell 100.0;
  Alcotest.(check (float 0.0)) "monotone" 42.5 (Incumbent.get cell);
  Incumbent.submit cell 0.0;
  Alcotest.(check (float 0.0)) "reaches zero" 0.0 (Incumbent.get cell)

let suite =
  [
    Alcotest.test_case "winner never worse than any solo strategy" `Quick
      test_winner_never_worse;
    Alcotest.test_case "winner identical at jobs 0 and 2" `Quick
      test_jobs_invariant;
    Alcotest.test_case "non-finite runtime never wins" `Quick
      test_non_finite_never_wins;
    Alcotest.test_case "single-strategy race degenerates" `Quick
      test_single_strategy_degenerates;
    Alcotest.test_case "place_batch equals sequential places" `Quick
      test_place_batch_identical;
    Alcotest.test_case "expired deadline aborts the reduce" `Quick
      test_expired_deadline;
    Alcotest.test_case "incumbent cell monotone min" `Quick
      test_incumbent_cell;
  ]
