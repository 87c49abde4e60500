(* Property tests for the strategy portfolio (Strategy + Portfolio +
   shared-incumbent plumbing in the placer): racing is a pure performance
   feature, so the winner must be bit-identical at any [jobs] value, never
   worse than any individually-run enabled strategy, and a single-strategy
   race must degenerate to running that strategy directly.  The deadline
   is an anytime cutoff whose anchor exemption guarantees a valid
   placement even at a zero budget. *)

module Placer = Qcp.Placer
module Options = Qcp.Options
module Strategy = Qcp.Strategy
module Portfolio = Qcp.Portfolio
module Incumbent = Qcp.Incumbent

let options_for ~seed threshold =
  (* Alternate option profiles so the sweep exercises the fast and the
     paper-default pipelines under the race. *)
  match seed mod 2 with
  | 0 -> Options.fast ~threshold
  | _ -> Options.default ~threshold

(* [jobs] pinned explicitly everywhere: CI runs the suite under QCP_JOBS 0
   and 2 and these properties must not depend on the ambient value. *)
let portfolio_options ~seed ~strategies ~jobs threshold =
  {
    (options_for ~seed threshold) with
    Options.portfolio = true;
    portfolio_strategies = strategies;
    jobs;
  }

let instance seed =
  let rng = Qcp_util.Rng.create (3100 + seed) in
  let n = 4 + Qcp_util.Rng.int rng 5 in
  let env = Qcp_env.Random_env.molecule rng ~n in
  let threshold = Qcp_env.Random_env.interesting_threshold rng env in
  let circuit, _ = Qcp_circuit.Random_circuit.hidden_stages rng ~n in
  (env, threshold, circuit)

(* Classic strategies on every seed; the annealer joins every fifth seed
   (its fixed iteration budget dominates the sweep's wall time). *)
let strategies_for seed =
  if seed mod 5 = 0 then Options.all_strategies
  else [ "greedy"; "lookahead"; "boundary" ]

let solo strategy options env circuit =
  (Strategy.find strategy |> Result.get_ok).Strategy.solve ~deadline:infinity
    ~shared:(Incumbent.make infinity) options env circuit

(* (a) The race's winner is never worse than any enabled strategy run
   alone, and exactly matches the best of them (the reduce only ever picks
   achieved runtimes). *)
let test_winner_never_worse () =
  for seed = 1 to 50 do
    let env, threshold, circuit = instance seed in
    let strategies = strategies_for seed in
    let options = portfolio_options ~seed ~strategies ~jobs:0 threshold in
    match Portfolio.run options env circuit with
    | Error msg -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed msg)
    | Ok report ->
      let solo_runtimes =
        List.filter_map
          (fun name ->
            match (solo name options env circuit).Strategy.result with
            | Strategy.Complete (_, runtime) -> Some (name, runtime)
            | Strategy.Pruned | Strategy.Expired ->
              Alcotest.fail
                (Printf.sprintf
                   "seed %d: solo %s aborted without peers or deadline" seed
                   name)
            | Strategy.Infeasible _ -> None)
          strategies
      in
      List.iter
        (fun (name, runtime) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: winner <= solo %s" seed name)
            true
            (report.Portfolio.runtime <= runtime))
        solo_runtimes;
      (* Exact equality with the best solo runtime: the winner *is* one of
         the solo results. *)
      let best_solo =
        List.fold_left
          (fun acc (_, r) -> Float.min acc r)
          infinity solo_runtimes
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: winner equals best solo" seed)
        true
        (report.Portfolio.runtime = best_solo)
  done

(* (b) The winner — name, stages and runtime — is bit-identical whether
   the race runs sequentially or over two pool domains. *)
let test_jobs_invariant () =
  for seed = 1 to 50 do
    let env, threshold, circuit = instance seed in
    let strategies = strategies_for seed in
    let race jobs =
      match
        Portfolio.run
          (portfolio_options ~seed ~strategies ~jobs threshold)
          env circuit
      with
      | Error msg -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed msg)
      | Ok report -> report
    in
    let a = race 0 and b = race 2 in
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

(* The cross-pruning ablation must not change the result either: sharing
   only lets losers stop earlier. *)
let test_share_ablation_invariant () =
  for seed = 1 to 15 do
    let env, threshold, circuit = instance seed in
    let strategies = strategies_for seed in
    let options = portfolio_options ~seed ~strategies ~jobs:0 threshold in
    let race share =
      match Portfolio.run ~share options env circuit with
      | Error msg -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed msg)
      | Ok report -> report
    in
    let shared = race true and private_ = race false in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: same winner without sharing" seed)
      shared.Portfolio.winner private_.Portfolio.winner;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: identical stages without sharing" seed)
      true
      (shared.Portfolio.program.Placer.stages
      = private_.Portfolio.program.Placer.stages);
    (* Private cells never see a peer value. *)
    List.iter
      (fun e ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d: %s has no peer prunes without sharing"
             seed e.Portfolio.strategy)
          0 e.Portfolio.peer_prunes)
      private_.Portfolio.entries
  done

(* (c) A zero deadline still returns a valid placement: the anchor ignores
   the clock. *)
let test_deadline_zero_places () =
  for seed = 1 to 10 do
    let env, threshold, circuit = instance seed in
    let options =
      {
        (portfolio_options ~seed ~strategies:(strategies_for seed) ~jobs:0
           threshold)
        with
        Options.deadline = Some 0.0;
      }
    in
    match Portfolio.run options env circuit with
    | Error msg -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed msg)
    | Ok report ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: finite runtime" seed)
        true
        (Float.is_finite report.Portfolio.runtime);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: runtime respects the lower bound" seed)
        true
        (report.Portfolio.runtime >= report.Portfolio.lower_bound);
      (* The anchor cannot expire; whoever won, somebody completed. *)
      List.iter
        (fun e ->
          match e.Portfolio.status with
          | Portfolio.Infeasible msg ->
            Alcotest.fail
              (Printf.sprintf "seed %d: %s infeasible under deadline: %s"
                 seed e.Portfolio.strategy msg)
          | Portfolio.Completed _ | Portfolio.Pruned | Portfolio.Expired ->
            ())
        report.Portfolio.entries
  done

(* (d) A single-strategy portfolio degenerates to running that strategy's
   pipeline directly. *)
let test_single_strategy_degenerates () =
  let direct_options name options =
    match name with
    | "greedy" ->
      Some
        { options with Options.lookahead = false; balance_boundaries = false }
    | "lookahead" ->
      Some
        { options with Options.lookahead = true; balance_boundaries = false }
    | "boundary" ->
      Some
        { options with Options.lookahead = true; balance_boundaries = true }
    | _ -> None
  in
  for seed = 1 to 25 do
    let env, threshold, circuit = instance seed in
    List.iter
      (fun name ->
        let options =
          portfolio_options ~seed ~strategies:[ name ] ~jobs:0 threshold
        in
        match direct_options name options with
        | None -> ()
        | Some direct -> (
          let race = Portfolio.place options env circuit in
          let alone = Placer.place direct env circuit in
          match (race, alone) with
          | Placer.Placed a, Placer.Placed b ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: %s race equals direct run" seed name)
              true
              (a.Placer.stages = b.Placer.stages
              && Placer.runtime a = Placer.runtime b)
          | Placer.Unplaceable _, Placer.Unplaceable _ -> ()
          | Placer.Placed _, Placer.Unplaceable msg
          | Placer.Unplaceable msg, Placer.Placed _ ->
            Alcotest.fail
              (Printf.sprintf "seed %d: %s placeability disagrees: %s" seed
                 name msg)))
      [ "greedy"; "lookahead"; "boundary" ]
  done

(* [Portfolio.place_batch] outcomes must equal per-spec [place] calls, in
   order, at any batch jobs value. *)
let test_place_batch_identical () =
  let specs =
    List.map
      (fun seed ->
        let env, threshold, circuit = instance (400 + seed) in
        ( portfolio_options ~seed ~strategies:(strategies_for seed) ~jobs:0
            threshold,
          env,
          circuit ))
      [ 1; 2; 3; 4 ]
  in
  let sequential =
    List.map (fun (o, e, c) -> Portfolio.place o e c) specs
  in
  List.iter
    (fun batch_jobs ->
      let batch = Portfolio.place_batch ~jobs:batch_jobs specs in
      List.iteri
        (fun i (reference, outcome) ->
          match (reference, outcome) with
          | Placer.Placed a, Placer.Placed b ->
            Alcotest.(check bool)
              (Printf.sprintf "jobs %d, spec %d: identical" batch_jobs i)
              true
              (a.Placer.stages = b.Placer.stages)
          | Placer.Unplaceable a, Placer.Unplaceable b ->
            Alcotest.(check string)
              (Printf.sprintf "jobs %d, spec %d: same failure" batch_jobs i)
              a b
          | _ ->
            Alcotest.fail
              (Printf.sprintf "jobs %d, spec %d: placeability disagrees"
                 batch_jobs i))
        (List.combine sequential batch))
    [ 0; 3 ]

let test_strategy_resolution () =
  (match Strategy.resolve [ "lookahead"; "greedy"; "greedy" ] with
  | Ok strategies ->
    Alcotest.(check (list string))
      "canonical order, deduplicated" [ "greedy"; "lookahead" ]
      (List.map (fun s -> s.Strategy.name) strategies)
  | Error msg -> Alcotest.fail msg);
  (match Strategy.resolve [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty selection must be rejected");
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    at 0
  in
  match Strategy.resolve [ "greedy"; "does-not-exist" ] with
  | Error msg ->
    Alcotest.(check bool)
      "unknown name reported" true
      (contains "does-not-exist" msg)
  | Ok _ -> Alcotest.fail "unknown strategy must be rejected"

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
    Alcotest.test_case "share ablation preserves the winner" `Quick
      test_share_ablation_invariant;
    Alcotest.test_case "deadline zero still places" `Quick
      test_deadline_zero_places;
    Alcotest.test_case "single-strategy race degenerates" `Quick
      test_single_strategy_degenerates;
    Alcotest.test_case "place_batch equals sequential places" `Quick
      test_place_batch_identical;
    Alcotest.test_case "strategy resolution" `Quick test_strategy_resolution;
    Alcotest.test_case "incumbent cell monotone min" `Quick
      test_incumbent_cell;
  ]
