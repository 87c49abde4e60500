(* The array bisection router, the packed SWAP-sequence timing and the
   scratch-built connecting permutations against the list-based
   implementations they replaced, kept verbatim below as references. *)

module Graph = Qcp_graph.Graph
module Gen = Qcp_graph.Generators
module Perm = Qcp_route.Perm
module Swap_network = Qcp_route.Swap_network
module Bisect_router = Qcp_route.Bisect_router
module Timing = Qcp_circuit.Timing
module Environment = Qcp_env.Environment
module Rng = Qcp_util.Rng

(* ------------------------------------------------------------------ *)
(* Reference router: the list implementation, verbatim.                *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  module Graph = Qcp_graph.Graph
  module Paths = Qcp_graph.Paths
  module Separator = Qcp_graph.Separator
  module Perm = Qcp_route.Perm
  module Swap_network = Qcp_route.Swap_network

  exception Routing_failure of string

  let depth_upper_bound g = (8 * Graph.n g) + 8

  (* [Swap_network.compress] over level lists, verbatim, so the reference
     does not share the library's compression. *)
  let compress t =
    (* One counting pass in place of [List.concat] + [List.length]: the
       bucketing below visits swaps in the same order the concatenation
       would, so the result is unchanged. *)
    let count = ref 0 in
    let top = ref 0 in
    List.iter
      (List.iter (fun (u, v) ->
           incr count;
           if u > !top then top := u;
           if v > !top then top := v))
      t;
    if !count = 0 then []
    else begin
      (* ready.(v) is the earliest level where vertex v is free; assigned
         levels are contiguous, so plain arrays replace the hashtables. *)
      let ready = Array.make (!top + 1) 0 in
      let buckets = Array.make !count [] in
      let max_level = ref (-1) in
      List.iter
        (List.iter (fun ((u, v) as swap) ->
             let level = max ready.(u) ready.(v) in
             ready.(u) <- level + 1;
             ready.(v) <- level + 1;
             if level > !max_level then max_level := level;
             buckets.(level) <- swap :: buckets.(level)))
        t;
      List.init (!max_level + 1) (fun i -> List.rev buckets.(i))
    end

  (* Everything the divide-and-conquer recursion derives from a vertex subset
     alone — the bisection, the channel edge and the per-half BFS structure —
     is independent of the permutation being routed.  A [memo] caches it per
     subset so repeated routes over the same adjacency graph (the placer
     scores hundreds of candidates against one graph) pay the separator and
     BFS costs once. *)
  type split_info = {
    si_sa : int list; (* small half, original vertex ids *)
    si_sb : int list; (* large half *)
    si_in_a : bool array;
    si_in_b : bool array;
    si_guard_cap : int;
    si_channel : int * int; (* (u1 in sa, u2 in sb) *)
    si_parent_a : int array;
    si_order_a : int list; (* sa sorted by distance to the channel *)
    si_parent_b : int array;
    si_order_b : int list;
  }

  type subset_info = Unsplittable | No_channel | Split of split_info

  type memo = {
    table : (int list, subset_info) Hashtbl.t;
    lock : Mutex.t;
    mutable owner : Graph.t option; (* the graph this memo was built against *)
  }

  let make_memo () = { table = Hashtbl.create 64; lock = Mutex.create (); owner = None }

  let compute_info g edge_cost vertices =
    let n = Graph.n g in
    let sub, back = Graph.induced g vertices in
    match Separator.bisect sub with
    | None -> Unsplittable
    | Some (small, large) ->
      let sa = List.map (fun i -> back.(i)) small in
      let sb = List.map (fun i -> back.(i)) large in
      let in_sa = Array.make n false in
      let in_sb = Array.make n false in
      List.iter (fun v -> in_sa.(v) <- true) sa;
      List.iter (fun v -> in_sb.(v) <- true) sb;
      let channel =
        (* All crossing edges; with an edge-cost oracle (the paper notes the
           algorithm extends to weighted SWAPs) pick the cheapest channel. *)
        let crossing =
          List.concat_map
            (fun v ->
              Array.to_list (Graph.neighbors g v)
              |> List.filter_map (fun u -> if in_sb.(u) then Some (v, u) else None))
            sa
        in
        match (edge_cost, crossing) with
        | _, [] -> None
        | None, first :: _ -> Some first
        | Some cost, candidates ->
          Qcp_util.Listx.min_by (fun (u, v) -> cost u v) candidates
      in
      (match channel with
      | None -> No_channel
      | Some (u1, u2) ->
        let dist_a = Paths.bfs_dist ~restrict:(fun v -> in_sa.(v)) g u1 in
        let parent_a = Paths.bfs_parents ~restrict:(fun v -> in_sa.(v)) g u1 in
        let dist_b = Paths.bfs_dist ~restrict:(fun v -> in_sb.(v)) g u2 in
        let parent_b = Paths.bfs_parents ~restrict:(fun v -> in_sb.(v)) g u2 in
        let by_dist dist side =
          List.sort (fun a b -> Int.compare dist.(a) dist.(b)) side
        in
        Split
          {
            si_sa = sa;
            si_sb = sb;
            si_in_a = in_sa;
            si_in_b = in_sb;
            si_guard_cap = (8 * (List.length sa + List.length sb)) + 16;
            si_channel = (u1, u2);
            si_parent_a = parent_a;
            si_order_a = by_dist dist_a sa;
            si_parent_b = parent_b;
            si_order_b = by_dist dist_b sb;
          })

  (* Offloading a subtree pays one pool round-trip plus a fresh scratch
     array; only worth it when the small half is big enough to hide that. *)
  let parallel_min_half = 8

  let route_impl ?(leaf_override = true) ?edge_cost ?memo ?(jobs = 0) g ~perm =
    let n = Graph.n g in
    if Array.length perm <> n then
      invalid_arg "Bisect_router.route: permutation size mismatch";
    if not (Perm.is_valid perm) then
      invalid_arg "Bisect_router.route: not a permutation";
    if not (Paths.is_connected g) then
      invalid_arg "Bisect_router.route: adjacency graph must be connected";
    let info_of =
      match memo with
      | None -> compute_info g edge_cost
      | Some memo ->
        (match memo.owner with
        | None -> memo.owner <- Some g
        | Some owner ->
          if owner != g then
            invalid_arg "Bisect_router.route: memo built for a different graph");
        fun vertices ->
          let find () = Hashtbl.find_opt memo.table vertices in
          Mutex.protect memo.lock (fun () ->
              match find () with
              | Some info -> info
              | None ->
                let info = compute_info g edge_cost vertices in
                Hashtbl.add memo.table vertices info;
                info)
    in
    let config = Array.init n (fun v -> v) in
    let dest_of v = perm.(config.(v)) in
    let settled v = dest_of v = v in
    let apply_level level =
      List.iter
        (fun (u, v) ->
          let tmp = config.(u) in
          config.(u) <- config.(v);
          config.(v) <- tmp)
        level
    in

    (* Leaf-target value override pre-pass: freeze leaves that hold (or can
       directly receive) their final value, shrinking the routing instance. *)
    let active = Array.make n true in
    let active_count = ref n in
    let prepass_levels = ref [] in
    (* Scratch "touched this level" marks, shared by the pre-pass and every
       phase iteration on the same task: cleared with a fill instead of a
       fresh allocation.  A subtree offloaded to the pool gets its own array
       ([phase] fills all [n] cells), so concurrent siblings never share
       scratch. *)
    let used = Array.make n false in
    if leaf_override then begin
      let progress = ref true in
      while !progress && !active_count > 2 do
        progress := false;
        let active_degree v =
          Array.fold_left
            (fun acc u -> if active.(u) then acc + 1 else acc)
            0 (Graph.neighbors g v)
        in
        Array.fill used 0 n false;
        let level = ref [] in
        let freezes = ref [] in
        for v = 0 to n - 1 do
          if active.(v) && (not used.(v)) && active_degree v = 1 then begin
            if settled v then freezes := v :: !freezes
            else begin
              let neighbor =
                Array.fold_left
                  (fun acc u -> if active.(u) then Some u else acc)
                  None (Graph.neighbors g v)
              in
              match neighbor with
              | Some u when (not used.(u)) && dest_of u = v ->
                used.(v) <- true;
                used.(u) <- true;
                level := (u, v) :: !level;
                freezes := v :: !freezes
              | Some _ | None -> ()
            end
          end
        done;
        if !level <> [] then begin
          apply_level !level;
          prepass_levels := !level :: !prepass_levels
        end;
        List.iter
          (fun v ->
            active.(v) <- false;
            decr active_count;
            progress := true)
          !freezes
      done
    end;

    (* Move misplaced tokens of [sa] and [sb] to their own half through the
       channel edge (u1, u2); within a half, misplaced tokens bubble toward the
       channel along BFS-tree parents, swapping only with correctly-sided
       tokens, closest-to-channel first. *)
    let phase ~used info =
      let in_sa = info.si_in_a in
      let in_sb = info.si_in_b in
      let u1, u2 = info.si_channel in
      (* Every closure the loop needs is built once per phase, not once per
         iteration: the inner loop runs O(half size) times per split and was
         dominated by its own allocations. *)
      let wrong_side_a v = in_sb.(dest_of v) in
      let in_sb_dest d = in_sb.(d) in
      let in_sa_dest d = in_sa.(d) in
      let out = ref [] in
      let level = ref [] in
      let take u v =
        used.(u) <- true;
        used.(v) <- true;
        level := (u, v) :: !level
      in
      let sweep order parent inside_other u_root =
        List.iter
          (fun v ->
            if v <> u_root && (not used.(v)) && inside_other (dest_of v) then begin
              let p = parent.(v) in
              if p >= 0 && (not used.(p)) && not (inside_other (dest_of p)) then
                take v p
            end)
          order
      in
      let iters = ref 0 in
      let cap = info.si_guard_cap in
      while List.exists wrong_side_a info.si_sa do
        if !iters > cap then raise (Routing_failure "phase did not converge");
        incr iters;
        Array.fill used 0 n false;
        level := [];
        (* Channel swap first. *)
        if in_sb.(dest_of u1) && in_sa.(dest_of u2) then take u1 u2;
        sweep info.si_order_a info.si_parent_a in_sb_dest u1;
        sweep info.si_order_b info.si_parent_b in_sa_dest u2;
        if !level = [] then raise (Routing_failure "phase produced an empty level");
        apply_level !level;
        out := !level :: !out
      done;
      List.rev !out
    in

    (* Interleave sibling level lists: the halves are vertex-disjoint, so their
       levels execute in parallel. *)
    let rec merge la lb =
      match (la, lb) with
      | [], rest | rest, [] -> rest
      | a :: ra, b :: rb -> (a @ b) :: merge ra rb
    in
    let rec solve ~used vertices =
      match vertices with
      | [] | [ _ ] -> []
      | [ a; b ] ->
        if settled a then []
        else begin
          let level = [ (a, b) ] in
          apply_level level;
          [ level ]
        end
      | _ -> (
        match info_of vertices with
        | Unsplittable -> raise (Routing_failure "could not bisect a connected subgraph")
        | No_channel -> raise (Routing_failure "no channel edge between bisection halves")
        | Split info ->
          let phase_levels = phase ~used info in
          (* After the phase, the halves are vertex-disjoint routing
             instances: their [config] entries never alias and each recursion
             swaps only within its own half, so they run as concurrent pool
             tasks.  Levels are pure values and [merge] interleaves them
             deterministically — the network is bit-identical to the
             sequential recursion. *)
          let la, lb =
            if jobs > 1 && List.length info.si_sa >= parallel_min_half then
              Qcp_util.Task_pool.both
                (Qcp_util.Task_pool.get ())
                ~jobs
                (fun () -> solve ~used info.si_sa)
                (fun () -> solve ~used:(Array.make n false) info.si_sb)
            else begin
              let la = solve ~used info.si_sa in
              let lb = solve ~used info.si_sb in
              (la, lb)
            end
          in
          phase_levels @ merge la lb)
    in
    let remaining = List.filter (fun v -> active.(v)) (Graph.vertices g) in
    let main_levels = solve ~used remaining in
    let network = List.rev_append !prepass_levels main_levels in
    assert (Array.for_all (fun v -> settled v) (Array.init n (fun v -> v)));
    (* ASAP re-levelization: sparse pre-pass and phase levels pack together. *)
    compress network


  (* [Perm.of_placements] before its scratch-built variant, verbatim. *)
  let of_placements ~size ~before ~after =
    if Array.length before <> Array.length after then
      invalid_arg "Perm.of_placements: placement lengths differ";
    let perm = Array.make size (-1) in
    let target_taken = Array.make size false in
    Array.iteri
      (fun q src ->
        let dst = after.(q) in
        if src < 0 || src >= size || dst < 0 || dst >= size then
          invalid_arg "Perm.of_placements: vertex out of range";
        if perm.(src) >= 0 || target_taken.(dst) then
          invalid_arg "Perm.of_placements: placements not injective";
        perm.(src) <- dst;
        target_taken.(dst) <- true)
      before;
    (* Complete over blank vertices: fix points first, then match leftovers. *)
    for v = 0 to size - 1 do
      if perm.(v) < 0 && not target_taken.(v) then begin
        perm.(v) <- v;
        target_taken.(v) <- true
      end
    done;
    let free_targets = ref [] in
    for v = size - 1 downto 0 do
      if not target_taken.(v) then free_targets := v :: !free_targets
    done;
    Array.iteri
      (fun src dst ->
        if dst < 0 then begin
          match !free_targets with
          | [] -> assert false
          | t :: rest ->
            perm.(src) <- t;
            free_targets := rest
        end)
      perm;
    assert (Perm.is_valid perm);
    perm
end

(* ------------------------------------------------------------------ *)
(* Router equality                                                     *)
(* ------------------------------------------------------------------ *)

(* An outcome both implementations can be compared on: the network, or
   the failure (each router raises its own [Routing_failure]). *)
let outcome f =
  match f () with
  | net -> Ok net
  | exception Bisect_router.Routing_failure m -> Error ("routing failure: " ^ m)
  | exception Reference.Routing_failure m -> Error ("routing failure: " ^ m)
  | exception Invalid_argument m -> Error ("invalid_arg: " ^ m)

let pp_outcome = function
  | Ok net -> Format.asprintf "%a" Swap_network.pp net
  | Error m -> m

(* A permutation of 1-3 transpositions: the lookahead's typical request. *)
let sparse_perm rng n =
  let p = Perm.identity n in
  for _ = 1 to 1 + Rng.int rng 3 do
    let a = Rng.int rng n and b = Rng.int rng n in
    let t = p.(a) in
    p.(a) <- p.(b);
    p.(b) <- t
  done;
  p

(* Routes [perms] over [g] through both routers under every setting: both
   leaf-override values, with and without edge costs, one memo per
   setting reused across all calls, the reference at jobs 0 and 2.  The
   compressed swap sequence must equal the reference network too. *)
let compare_on ~label ?edge_cost g perms =
  let checked = ref 0 in
  List.iter
    (fun (leaf_override, edge_cost) ->
      let memo = Bisect_router.make_memo () in
      let ref_memo = Reference.make_memo () in
      List.iter
        (fun perm ->
          let got =
            outcome (fun () ->
                Bisect_router.route_sequence ~leaf_override ?edge_cost ~memo g
                  ~perm)
          in
          let fresh =
            outcome (fun () -> Bisect_router.route ~leaf_override ?edge_cost g ~perm)
          in
          List.iter
            (fun jobs ->
              let expected =
                outcome (fun () ->
                    Reference.route_impl ~leaf_override ?edge_cost ~memo:ref_memo
                      ~jobs g ~perm)
              in
              let kept = Result.map Swap_network.compressed got in
              if expected <> kept || expected <> fresh then
                Alcotest.failf
                  "%s (leaf_override %b, cost %b, jobs %d):@.expected %s@.got %s"
                  label leaf_override (edge_cost <> None) jobs
                  (pp_outcome expected) (pp_outcome kept);
              incr checked)
            [ 0; 2 ])
        perms)
    [ (true, None); (false, None); (true, edge_cost); (false, edge_cost) ];
  !checked

let random_perms rng n count =
  List.init count (fun i ->
      if i mod 2 = 0 then Perm.random rng n else sparse_perm rng n)

(* Deterministic asymmetric edge costs with plenty of ties broken by the
   crossing-edge order. *)
let synthetic_cost u v = float_of_int (((u * 7919) + (v * 104729)) mod 7)

let test_router_matches_reference () =
  let rng = Rng.create 2024 in
  let checked = ref 0 in
  let run ~label ?edge_cost g count =
    checked :=
      !checked + compare_on ~label ?edge_cost g (random_perms rng (Graph.n g) count)
  in
  List.iter
    (fun env ->
      List.iter
        (fun threshold ->
          match Environment.connected_adjacency env ~threshold with
          | Some g ->
            run
              ~label:(Printf.sprintf "%s@%g" (Environment.name env) threshold)
              ~edge_cost:(Environment.coupling_delay env) g 24
          | None -> ())
        [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ])
    Qcp_env.Molecules.all;
  for i = 0 to 11 do
    let n = 3 + Rng.int rng 30 in
    run ~label:(Printf.sprintf "tree %d" i) ~edge_cost:synthetic_cost
      (Gen.random_tree rng n) 8;
    run ~label:(Printf.sprintf "random %d" i) ~edge_cost:synthetic_cost
      (Gen.random_connected rng ~n ~extra_edges:(Rng.int rng n)) 8
  done;
  run ~label:"grid 6x6" ~edge_cost:synthetic_cost (Gen.grid 6 6) 8;
  run ~label:"grid 9x9" ~edge_cost:synthetic_cost (Gen.grid 9 9) 6;
  run ~label:"grid 16x16" ~edge_cost:synthetic_cost (Gen.grid 16 16) 2;
  run ~label:"heavy-hex" ~edge_cost:synthetic_cost (Gen.heavy_hex ~rows:2 ~cols:3) 8;
  Alcotest.(check bool) "routings compared" true (!checked > 2000)

(* The argument checks fail alike, messages included. *)
let test_router_rejects_like_reference () =
  let g = Gen.grid 3 3 in
  let cases =
    [
      ("size mismatch", g, Perm.identity 4);
      ("not a permutation", g, Array.make 9 0);
      ("disconnected", Graph.of_edges 4 [ (0, 1); (2, 3) ], [| 1; 0; 3; 2 |]);
    ]
  in
  List.iter
    (fun (label, g, perm) ->
      let expected = outcome (fun () -> Reference.route_impl g ~perm) in
      let got =
        outcome (fun () ->
            Swap_network.compressed (Bisect_router.route_sequence g ~perm))
      in
      Alcotest.(check bool) (label ^ " fails") true (Result.is_error expected);
      Alcotest.(check string) label (pp_outcome expected) (pp_outcome got))
    cases;
  (* A memo bound to one graph refuses another, after the perm checks. *)
  let memo = Bisect_router.make_memo () and ref_memo = Reference.make_memo () in
  let other = Gen.grid 3 3 in
  let perm = Perm.identity 9 in
  ignore (Bisect_router.route_sequence ~memo g ~perm : Swap_network.sequence);
  ignore (Reference.route_impl ~memo:ref_memo g ~perm : Swap_network.t);
  Alcotest.(check string) "memo of another graph"
    (pp_outcome (outcome (fun () -> Reference.route_impl ~memo:ref_memo other ~perm)))
    (pp_outcome
       (outcome (fun () ->
            Swap_network.compressed
              (Bisect_router.route_sequence ~memo other ~perm))))

(* ------------------------------------------------------------------ *)
(* Flat SWAP timing                                                    *)
(* ------------------------------------------------------------------ *)

let bits a = Array.map Int64.bits_of_float a

(* The environment's delays with one orientation of every pair slower:
   the orientation of a swap matters. *)
let asymmetric env =
  let base = Environment.weights env in
  Array.mapi
    (fun u row ->
      Array.mapi
        (fun v d -> if u = v then d else d *. if u < v then 1.0 else 1.375)
        row)
    base

(* Random SWAP sequences over a molecule's adjacency edges, in both
   orientations and with repeated same-pair runs (the reuse-cap
   accounting), timed through [stage_advance_swaps] and through
   [stage_advance] over [Swap_network.to_circuit]: verdicts and clocks
   agree bit for bit under both models, every reuse cap, no cutoff and
   finite cutoffs on either side of the makespan. *)
let test_flat_timing_matches_circuit () =
  let rng = Rng.create 77 in
  let compared = ref 0 and refuted = ref 0 in
  let flat_scratch = Timing.make_scratch () in
  let circuit_scratch = Timing.make_scratch () in
  List.iter
    (fun env ->
      match Environment.connected_adjacency env ~threshold:1000.0 with
      | None -> ()
      | Some g ->
        let m = Graph.n g in
        let weights = asymmetric env in
        let identity = Array.init m Fun.id in
        let edges = Array.of_list (Graph.edges g) in
        for _ = 1 to 30 do
          let levels =
            List.init (1 + Rng.int rng 12) (fun _ ->
                let u, v = edges.(Rng.int rng (Array.length edges)) in
                let swap = if Rng.bool rng then (u, v) else (v, u) in
                List.init (1 + Rng.int rng 3) (fun _ -> swap))
            |> List.concat_map (List.map (fun swap -> [ swap ]))
          in
          let sequence = Swap_network.of_levels levels in
          let circuit =
            Timing.compile (Swap_network.to_circuit ~qubits:m levels)
          in
          let start = Array.init m (fun _ -> Rng.float rng 300.0) in
          List.iter
            (fun (model, reuse_cap) ->
              Timing.stage_start circuit_scratch start;
              assert (
                Timing.stage_advance ~model ~reuse_cap ~cutoff:infinity ~weights
                  ~place:identity circuit_scratch circuit);
              let makespan = Timing.stage_makespan circuit_scratch in
              List.iter
                (fun cutoff ->
                  Timing.stage_start flat_scratch start;
                  Timing.stage_start circuit_scratch start;
                  let got =
                    Timing.stage_advance_swaps ~model ~reuse_cap ~cutoff ~weights
                      flat_scratch sequence
                  in
                  let expected =
                    Timing.stage_advance ~model ~reuse_cap ~cutoff ~weights
                      ~place:identity circuit_scratch circuit
                  in
                  Alcotest.(check bool) "verdict" expected got;
                  if not got then incr refuted;
                  if
                    bits (Timing.stage_clocks flat_scratch)
                    <> bits (Timing.stage_clocks circuit_scratch)
                  then Alcotest.fail "clocks differ";
                  incr compared)
                [
                  infinity;
                  makespan;
                  makespan *. 0.999;
                  makespan *. 0.5;
                  Rng.float rng makespan;
                ])
            [
              (Timing.Asap, None);
              (Timing.Asap, Some 3.0);
              (Timing.Asap, Some 1.5);
              (Timing.Sequential, None);
              (Timing.Sequential, Some 1.5);
            ]
        done)
    Qcp_env.Molecules.all;
  Alcotest.(check bool) "compared" true (!compared > 1000);
  Alcotest.(check bool) "some cutoffs refute" true (!refuted > 100)

(* ------------------------------------------------------------------ *)
(* Swap sequences                                                      *)
(* ------------------------------------------------------------------ *)

(* A routed swap sequence times bit for bit like the compressed network
   the placer keeps: each vertex meets its swaps in the same order.  The
   sequence (generation order) and the network level by level are timed
   by the same loop from the same random start clocks, under every reuse
   cap, unbounded and under random cutoffs on either side of the
   makespan: clocks agree in their bits and verdicts agree. *)
let test_sequence_timing_matches_network () =
  let rng = Rng.create 448 in
  let compared = ref 0 and refuted = ref 0 in
  let seq_scratch = Timing.make_scratch () and net_scratch = Timing.make_scratch () in
  let run ~label env g count =
    let m = Graph.n g in
    let weights = asymmetric env in
    let memo = Some (Bisect_router.make_memo ()) in
    List.iter
      (fun perm ->
        let sequence = Bisect_router.route_sequence ?memo g ~perm in
        let network = Swap_network.of_levels (Swap_network.compressed sequence) in
        let start = Array.init m (fun _ -> Rng.float rng 300.0) in
        List.iter
          (fun (model, reuse_cap) ->
            Timing.stage_start net_scratch start;
            assert (
              Timing.stage_advance_swaps ~model ~reuse_cap ~cutoff:infinity
                ~weights net_scratch network);
            let makespan = Timing.stage_makespan net_scratch in
            List.iter
              (fun cutoff ->
                Timing.stage_start seq_scratch start;
                Timing.stage_start net_scratch start;
                let got =
                  Timing.stage_advance_swaps ~model ~reuse_cap ~cutoff ~weights
                    seq_scratch sequence
                in
                let expected =
                  Timing.stage_advance_swaps ~model ~reuse_cap ~cutoff ~weights
                    net_scratch network
                in
                if got <> expected then Alcotest.failf "%s: verdicts differ" label;
                if not got then incr refuted
                else if
                  bits (Timing.stage_clocks seq_scratch)
                  <> bits (Timing.stage_clocks net_scratch)
                then Alcotest.failf "%s: clocks differ" label;
                incr compared)
              [
                infinity;
                makespan;
                makespan *. 0.999;
                Rng.float rng makespan;
                Rng.float rng makespan;
              ])
          [
            (Timing.Asap, None);
            (Timing.Asap, Some 1.0);
            (Timing.Asap, Some 2.5);
            (Timing.Asap, Some 3.0);
            (Timing.Sequential, None);
          ])
      (random_perms rng m count)
  in
  List.iter
    (fun env ->
      List.iter
        (fun threshold ->
          match Environment.connected_adjacency env ~threshold with
          | Some g ->
            run ~label:(Printf.sprintf "%s@%g" (Environment.name env) threshold) env g 12
          | None -> ())
        [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ])
    Qcp_env.Molecules.all;
  List.iter
    (fun (label, env) ->
      run ~label env (Option.get (Environment.connected_adjacency env ~threshold:50.0)) 8)
    [
      ("chain 64", Environment.chain 64);
      ("grid 8x8", Environment.grid 8 8);
      ("heavy-hex", Environment.heavy_hex 2 3);
    ];
  Alcotest.(check bool) "compared" true (!compared > 5000);
  Alcotest.(check bool) "some cutoffs refute" true (!refuted > 500)

(* The networks a placement keeps equal the list routers' networks: for
   every router, each kept SWAP stage is re-routed from the permutation it
   realizes by the list reference (the verbatim bisection router, with the
   environment's delays as edge costs for the weighted one; the token and
   odd-even routers are list routers themselves). *)
let test_kept_networks_match_list_routers () =
  let module Placer = Qcp.Placer in
  let module Options = Qcp.Options in
  let realized m net =
    let final = Swap_network.apply net (Array.init m Fun.id) in
    let perm = Array.make m 0 in
    Array.iteri (fun vertex token -> perm.(token) <- vertex) final;
    perm
  in
  let checked = ref 0 in
  let check ~label env router circuit =
    let options =
      { (Options.default ~threshold:100.0) with Options.router; jobs = 0 }
    in
    match Placer.place options env circuit with
    | Placer.Unplaceable msg -> Alcotest.failf "%s: %s" label msg
    | Placer.Placed p ->
      let g = p.Placer.adjacency in
      let m = Graph.n g in
      let reference perm =
        match router with
        | Options.Bisect -> Reference.route_impl g ~perm
        | Options.Bisect_weighted ->
          Reference.route_impl ~edge_cost:(Environment.coupling_delay env) g ~perm
        | Options.Token -> Qcp_route.Token_router.route g ~perm
        | Options.Odd_even -> Qcp_route.Oes_router.route g ~perm
      in
      List.iter
        (function
          | Placer.Permute net ->
            let expected = reference (realized m net) in
            if expected <> net then
              Alcotest.failf "%s: kept network@.%a@.list router@.%a" label
                Swap_network.pp net Swap_network.pp expected;
            incr checked
          | Placer.Compute _ -> ())
        p.Placer.stages
  in
  List.iter
    (fun (name, router) ->
      List.iter
        (fun (env, circuit) ->
          check ~label:(name ^ "@" ^ Environment.name env) env router circuit)
        [
          (Qcp_env.Molecules.trans_crotonic_acid, Qcp_circuit.Catalog.qft 6);
          (Qcp_env.Molecules.histidine, Qcp_circuit.Catalog.phase_estimation 4);
          (Environment.chain 8, Qcp_circuit.Catalog.qft 6);
        ])
    [
      ("bisect", Options.Bisect);
      ("weighted", Options.Bisect_weighted);
      ("token", Options.Token);
    ];
  List.iter
    (fun n ->
      check ~label:(Printf.sprintf "odd-even@chain %d" n) (Environment.chain n)
        Options.Odd_even (Qcp_circuit.Catalog.qft 6))
    [ 6; 8; 12 ];
  Alcotest.(check bool) "kept networks compared" true (!checked > 20)

(* ------------------------------------------------------------------ *)
(* Scratch-built connecting permutations                               *)
(* ------------------------------------------------------------------ *)

(* One builder reused across sizes, successes and failures equals the
   verbatim allocating [of_placements], messages included. *)
let test_of_placements_into_matches () =
  let rng = Rng.create 5 in
  let b = Perm.builder () in
  let outcome f =
    match f () with
    | p -> Ok (Array.copy p)
    | exception Invalid_argument m -> Error m
  in
  let errors = ref 0 in
  for _ = 1 to 3000 do
    let size = 1 + Rng.int rng 20 in
    let qubits = Rng.int rng (size + 1) in
    let injective () = Array.sub (Perm.random rng size) 0 qubits in
    let before = injective () and after = injective () in
    let before, after =
      match Rng.int rng 8 with
      | 0 when qubits > 0 -> (Array.append before [| 0 |], after)
      | 1 when qubits > 0 ->
        before.(Rng.int rng qubits) <- (if Rng.bool rng then size else -1);
        (before, after)
      | 2 when qubits > 0 ->
        after.(Rng.int rng qubits) <- size + Rng.int rng 3;
        (before, after)
      | 3 when qubits > 1 ->
        after.(0) <- after.(1);
        (before, after)
      | 4 when qubits > 1 ->
        before.(1) <- before.(0);
        (before, after)
      | _ -> (before, after)
    in
    let expected = outcome (fun () -> Reference.of_placements ~size ~before ~after) in
    let got = outcome (fun () -> Perm.of_placements_into b ~size ~before ~after) in
    if Result.is_error expected then incr errors;
    if expected <> got then
      Alcotest.failf "size %d: of_placements_into differs from the reference" size;
    Alcotest.(check bool) "allocating form" true
      (expected = outcome (fun () -> Perm.of_placements ~size ~before ~after))
  done;
  Alcotest.(check bool) "error cases exercised" true (!errors > 500)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Every block a histidine route allocates is small, so all of it is
   minor-heap allocation. *)
let words_allocated f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The words a block of [len] fields takes on the minor heap (an empty
   array is a preallocated atom). *)
let block_words len = if len = 0 then 0 else len + 1

(* A warm-memo route on histidine at threshold 1000 allocates its result
   and nothing else: the swap sequence, one word per swap plus a header.
   (The list router plus its SWAP circuit took 1,794 words a route; the
   flat schedule before the sequence, 74.) *)
let test_route_miss_allocation () =
  let env = Qcp_env.Molecules.histidine in
  let g = Option.get (Environment.connected_adjacency env ~threshold:1000.0) in
  let rng = Rng.create 9 in
  let perms = Array.init 64 (fun i ->
      if i mod 2 = 0 then Perm.random rng (Graph.n g) else sparse_perm rng (Graph.n g))
  in
  let memo = Some (Bisect_router.make_memo ()) in
  let results = Array.make (Array.length perms) [||] in
  let route () =
    for i = 0 to Array.length perms - 1 do
      results.(i) <- Bisect_router.route_sequence ?memo g ~perm:perms.(i)
    done
  in
  route ();
  let words = words_allocated route -. words_allocated ignore in
  let expected =
    Array.fold_left (fun acc r -> acc + block_words (Array.length r)) 0 results
  in
  Alcotest.(check int) "a warm route allocates only its sequence" expected
    (int_of_float words)

let suite =
  [
    Alcotest.test_case "router = list reference" `Quick test_router_matches_reference;
    Alcotest.test_case "router rejects like reference" `Quick
      test_router_rejects_like_reference;
    Alcotest.test_case "flat timing = circuit timing" `Quick
      test_flat_timing_matches_circuit;
    Alcotest.test_case "sequence timing = compressed network timing" `Quick
      test_sequence_timing_matches_network;
    Alcotest.test_case "kept networks = list routers" `Quick
      test_kept_networks_match_list_routers;
    Alcotest.test_case "of_placements_into = of_placements" `Quick
      test_of_placements_into_matches;
    Alcotest.test_case "warm route miss allocation" `Quick
      test_route_miss_allocation;
  ]
