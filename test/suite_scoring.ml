(* The scoring kernel's one-pass completion against the two passes it
   replaced, kept verbatim below (the placer's [complete_after] over
   [place_active], and [Perm.of_placements_into]), plus the allocation of
   a warm lookahead completion and of a warm lookahead placement. *)

module Graph = Qcp_graph.Graph
module Generators = Qcp_graph.Generators
module Monomorph = Qcp_graph.Monomorph
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Timing = Qcp_circuit.Timing
module Environment = Qcp_env.Environment
module Molecules = Qcp_env.Molecules
module Bisect_router = Qcp_route.Bisect_router
module Metrics = Qcp_obs.Metrics
module Rng = Qcp_util.Rng
module Options = Qcp.Options
module Scoring = Qcp.Scoring
module Score_cache = Qcp.Score_cache

(* ------------------------------------------------------------------ *)
(* Reference passes, verbatim.                                         *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  type ctx = { c_n : int; c_m : int; c_dist : int array array Lazy.t }

  (* Load a partial monomorphism (active qubits only) into [placement],
     marking its vertices in [taken]; every other qubit reads -1. *)
  let place_active ctx ~placement ~taken mapping =
    Array.fill placement 0 ctx.c_n (-1);
    Array.fill taken 0 ctx.c_m false;
    for q = 0 to Array.length mapping - 1 do
      let v = mapping.(q) in
      if v >= 0 then begin
        placement.(q) <- v;
        taken.(v) <- true
      end
    done

  (* Extend a partial monomorphism to a full injective placement of every
     logical qubit, given the previous stage's placement, into [placement]
     ([taken] is scratch of environment size): inactive qubits keep their
     previous vertex when it is free, then, in qubit order, fall to the
     nearest free vertex.  Allocates nothing. *)
  let complete_after ctx ~previous ~placement ~taken mapping =
    place_active ctx ~placement ~taken mapping;
    (* Previous vertices are distinct, so no inactive qubit can take another
       one's: the order of this pass does not matter. *)
    for q = 0 to ctx.c_n - 1 do
      if placement.(q) < 0 && not taken.(previous.(q)) then begin
        placement.(q) <- previous.(q);
        taken.(previous.(q)) <- true
      end
    done;
    (* Displaced inactive qubits move to the nearest free vertex. *)
    let dist_table = Lazy.force ctx.c_dist in
    for q = 0 to ctx.c_n - 1 do
      if placement.(q) < 0 then begin
        let dist = dist_table.(previous.(q)) in
        let best = ref (-1) in
        for v = 0 to ctx.c_m - 1 do
          if not taken.(v) then
            match !best with
            | -1 -> best := v
            | b ->
              let dv = if dist.(v) < 0 then max_int else dist.(v) in
              let db = if dist.(b) < 0 then max_int else dist.(b) in
              if dv < db then best := v
        done;
        assert (!best >= 0);
        placement.(q) <- !best;
        taken.(!best) <- true
      end
    done

  type builder = { mutable perm : int array; mutable taken : bool array }

  let builder () = { perm = [||]; taken = [||] }

  let of_placements_into b ~size ~before ~after =
    if Array.length before <> Array.length after then
      invalid_arg "Perm.of_placements: placement lengths differ";
    if Array.length b.perm <> size then begin
      b.perm <- Array.make size (-1);
      b.taken <- Array.make size false
    end;
    let perm = b.perm and taken = b.taken in
    Array.fill perm 0 size (-1);
    Array.fill taken 0 size false;
    for q = 0 to Array.length before - 1 do
      let src = before.(q) and dst = after.(q) in
      if src < 0 || src >= size || dst < 0 || dst >= size then
        invalid_arg "Perm.of_placements: vertex out of range";
      if perm.(src) >= 0 || taken.(dst) then
        invalid_arg "Perm.of_placements: placements not injective";
      perm.(src) <- dst;
      taken.(dst) <- true
    done;
    (* Complete over blank vertices: fix points first, then match leftover
       sources to free targets, both in index order. *)
    for v = 0 to size - 1 do
      if perm.(v) < 0 && not taken.(v) then begin
        perm.(v) <- v;
        taken.(v) <- true
      end
    done;
    let free = ref 0 in
    for src = 0 to size - 1 do
      if perm.(src) < 0 then begin
        while taken.(!free) do
          incr free
        done;
        perm.(src) <- !free;
        taken.(!free) <- true
      end
    done;
    (* [is_valid] without its allocation: [taken] becomes the seen marks. *)
    Array.fill taken 0 size false;
    for src = 0 to size - 1 do
      let dst = perm.(src) in
      assert (dst >= 0 && dst < size && not taken.(dst));
      taken.(dst) <- true
    done;
    perm
end

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let counter name = Metrics.counter (Metrics.create ()) name

let scoring ?(options = Options.default ~threshold:1000.0) ?route env adjacency ~n =
  let route =
    match route with
    | Some route -> route
    | None -> fun _ -> Alcotest.fail "this case routes nothing"
  in
  Scoring.create options env adjacency ~n ~scored:(counter "scored")
    ~early_exits:(counter "exits") ~route

let bits a = Array.map Int64.bits_of_float a

(* A partial injective mapping: each qubit active with probability
   [density], on distinct random vertices. *)
let random_mapping rng ~n ~m ~density =
  let images = Rng.permutation rng m in
  Array.init n (fun q -> if Rng.float rng 1.0 < density then images.(q) else -1)

let words_allocated f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* ------------------------------------------------------------------ *)
(* One-pass completion = the two passes                                *)
(* ------------------------------------------------------------------ *)

(* Every instance: an environment and the adjacency graph the completion
   and the lift read.  Two disconnected graphs (a split chain, histidine's
   raw fast graph at 50) put unreachable vertices in the distance table. *)
let instances () =
  let thresholds = [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ] in
  let molecules =
    List.concat_map
      (fun env ->
        List.filter_map
          (fun threshold ->
            Option.map
              (fun g -> (Printf.sprintf "%s/%g" (Environment.name env) threshold, env, g))
              (Environment.connected_adjacency env ~threshold))
          thresholds)
      Molecules.all
  in
  let of_graph name g = (name, Environment.of_graph g, g) in
  let split =
    Graph.of_edges 12
      [ (0, 1); (1, 2); (2, 3); (3, 4); (5, 6); (6, 7); (8, 9); (9, 10) ]
  in
  molecules
  @ [
      of_graph "chain64" (Graph.of_edges 64 (List.init 63 (fun i -> (i, i + 1))));
      of_graph "grid8x8" (Generators.grid 8 8);
      of_graph "heavy-hex" (Generators.heavy_hex ~rows:3 ~cols:3);
      of_graph "split" split;
      ( "histidine/50 raw",
        Molecules.histidine,
        Environment.adjacency Molecules.histidine ~threshold:50.0 );
    ]

let test_completion_matches_reference () =
  let rng = Rng.create 1729 in
  let compared = ref 0 and displaced = ref 0 and unreachable = ref 0 in
  let moved = ref 0 in
  List.iter
    (fun (label, env, g) ->
      let m = Graph.n g in
      for round = 1 to 40 do
        let n = 1 + Rng.int rng m in
        let sc = scoring env g ~n in
        let lane = Scoring.lane sc in
        let hops = Array.init m (Qcp_graph.Paths.bfs_dist g) in
        let ctx = { Reference.c_n = n; c_m = m; c_dist = lazy hops } in
        let builder = Reference.builder () in
        let previous = Array.sub (Rng.permutation rng m) 0 n in
        let start = Array.init m (fun _ -> Rng.float rng 100.0) in
        let mapping =
          random_mapping rng ~n ~m ~density:(Rng.float rng 1.0)
        in
        let expected = Array.make n (-1) and taken = Array.make m false in
        Reference.complete_after ctx ~previous ~placement:expected ~taken mapping;
        Scoring.complete sc lane ~previous mapping;
        let got = Array.sub (Scoring.next lane) 0 n in
        if got <> expected then
          Alcotest.failf "%s round %d: completions differ" label round;
        Array.iteri
          (fun q v ->
            if (q >= Array.length mapping || mapping.(q) < 0) && v <> previous.(q)
            then begin
              incr displaced;
              if hops.(previous.(q)).(v) < 0 then incr unreachable
            end)
          got;
        (* The connecting permutation, its identity test and the lift:
           once over the completion's own marks, once over a placement
           marked afresh. *)
        let perm =
          Reference.of_placements_into builder ~size:m ~before:previous
            ~after:expected
        in
        let identity = Qcp_route.Perm.is_identity perm in
        let lift = Qcp.Scoring.swap_lift (Options.default ~threshold:1000.0) env g in
        let lifted_clocks = Array.copy start and lifted = ref 0.0 in
        Array.iteri
          (fun src dst ->
            if src <> dst then begin
              let t = lift ~start src dst in
              if t > lifted_clocks.(dst) then lifted_clocks.(dst) <- t;
              if t > !lifted then lifted := t
            end)
          perm;
        let check how =
          let scratch = Scoring.scratch lane in
          Timing.stage_start scratch start;
          let is_identity =
            Scoring.connect sc lane ~previous ~next:expected ~start ~pos:0
          in
          if is_identity <> identity then
            Alcotest.failf "%s round %d (%s): identity %b, reference %b" label
              round how is_identity identity;
          if not identity then begin
            incr moved;
            if Scoring.perm lane <> perm then
              Alcotest.failf "%s round %d (%s): permutations differ" label round
                how
          end;
          if bits (Timing.stage_clocks scratch) <> bits lifted_clocks then
            Alcotest.failf "%s round %d (%s): lifted clocks differ" label round how;
          if Int64.bits_of_float (Scoring.lifted lane) <> Int64.bits_of_float !lifted
          then Alcotest.failf "%s round %d (%s): largest lift differs" label round how;
          incr compared
        in
        Scoring.mark_sources sc lane previous;
        check "completed";
        Scoring.mark_sources sc lane previous;
        Scoring.mark_targets sc lane expected;
        check "marked"
      done)
    (instances ());
  Alcotest.(check bool) "compared" true (!compared > 2000);
  Alcotest.(check bool) "displaced qubits" true (!displaced > 500);
  Alcotest.(check bool) "unreachable vertices taken" true (!unreachable > 10);
  Alcotest.(check bool) "non-identity permutations" true (!moved > 1000)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Histidine at 1000: a chain pattern of four active qubits out of eight,
   completed after a fixed stage-1 placement over every monomorphism.  A
   warm pass hits the route table on every non-identity completion; the
   same completions twice over (the second time none improves the running
   minimum) allocate exactly as much as once, so a completion allocates
   nothing -- unbounded, and under a finite cutoff that refutes some by
   the displacement lift. *)
let test_completion_allocation () =
  let env = Molecules.histidine in
  let g = Option.get (Environment.connected_adjacency env ~threshold:1000.0) in
  let m = Graph.n g and n = 8 in
  let cache =
    Score_cache.create
      (Score_cache.private_copy
         (Score_cache.shared g ~router:Options.Bisect ~leaf_override:false))
  in
  let router memo perm = Bisect_router.route_sequence ?memo g ~perm in
  let routes = ref 0 in
  let route perm =
    incr routes;
    Score_cache.route cache ~route:router perm
  in
  let sc = scoring ~route env g ~n in
  let lane = Scoring.lane sc in
  let next =
    Circuit.make ~qubits:n
      [ Gate.zz 0 1 90.0; Gate.zz 1 2 90.0; Gate.rx 2 30.0; Gate.zz 2 3 45.0 ]
  in
  let next_stage = Timing.compile next in
  let mappings =
    Array.of_list
      (Monomorph.enumerate ~pattern:(Circuit.interaction_graph next) ~target:g ())
  in
  let rng = Rng.create 7 in
  let placement = Array.sub (Rng.permutation rng m) 0 n in
  let start = Array.init m (fun _ -> Rng.float rng 500.0) in
  let tail ~cutoff mappings () =
    ignore
      (Scoring.deep_tail sc lane ~cutoff ~start ~pos:0 ~stage1:0.0 ~placement
         ~next_stage ~next_mappings:mappings
        : float)
  in
  let best = Scoring.deep_tail sc lane ~cutoff:infinity ~start ~pos:0 ~stage1:0.0
      ~placement ~next_stage ~next_mappings:mappings
  in
  let twice = Array.append mappings mappings in
  List.iter
    (fun cutoff ->
      tail ~cutoff twice ();
      let misses = Score_cache.misses cache in
      routes := 0;
      let once = words_allocated (tail ~cutoff mappings) in
      let both = words_allocated (tail ~cutoff twice) in
      Alcotest.(check int) "warm passes route nothing new" misses
        (Score_cache.misses cache);
      if !routes = 0 then Alcotest.fail "no completion reached the route table";
      if both <> once then
        Alcotest.failf
          "cutoff %g: %d completions allocate %.0f words, %d allocate %.0f"
          cutoff (Array.length mappings) once (Array.length twice) both)
    [ infinity; best *. 1.05 ]

(* A warm lookahead placement (histidine, steane-x/z2 at 1000, jobs 0)
   allocates a small constant per scored candidate, everything else in
   the run included: enumeration, fine tuning, the kept networks.  It
   reads about 14.8 words each, against a ceiling of 24. *)
let test_lookahead_sweep_allocation () =
  let options = { (Options.default ~threshold:1000.0) with Options.jobs = 0 } in
  let circuit = Option.get (Qcp_circuit.Catalog.by_name "steane-x/z2") in
  let place () = Qcp.Placer.place options Molecules.histidine circuit in
  ignore (place () : Qcp.Placer.outcome);
  let outcome = ref None in
  let words = words_allocated (fun () -> outcome := Some (place ())) in
  match !outcome with
  | Some (Qcp.Placer.Placed program) ->
    let scored = program.Qcp.Placer.stats.Qcp.Placer.candidates_scored in
    Alcotest.(check int) "candidates scored" 10446 scored;
    let per_candidate = words /. float_of_int scored in
    if per_candidate > 24.0 then
      Alcotest.failf "%.0f words over %d candidates (%.1f each, ceiling 24)" words
        scored per_candidate
  | Some (Qcp.Placer.Unplaceable msg) -> Alcotest.failf "unplaceable: %s" msg
  | None -> assert false

let suite =
  [
    Alcotest.test_case "one-pass completion = reference passes" `Quick
      test_completion_matches_reference;
    Alcotest.test_case "warm completion allocates nothing" `Quick
      test_completion_allocation;
    Alcotest.test_case "warm lookahead sweep allocation" `Quick
      test_lookahead_sweep_allocation;
  ]
