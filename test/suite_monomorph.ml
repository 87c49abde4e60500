(* Property tests pinning the bitset monomorphism engine and the pruned
   Hamiltonian search to the seed implementations they replaced: the new
   engines must produce the same mappings in the same order (respectively
   the same route), because downstream placement decisions are keyed to
   that enumeration order. *)

module Graph = Qcp_graph.Graph
module Monomorph = Qcp_graph.Monomorph
module Hamilton = Qcp_graph.Hamilton
module Gen = Qcp_graph.Generators
module Rng = Qcp_util.Rng

(* ------------------------------------------------------------------ *)
(* Reference enumerator: the seed implementation, kept verbatim.       *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  let ordering pattern =
    let active =
      List.filter (fun v -> Graph.degree pattern v > 0) (Graph.vertices pattern)
    in
    let seen = Array.make (Graph.n pattern) false in
    let order = ref [] in
    let by_degree_desc =
      List.sort
        (fun a b -> compare (Graph.degree pattern b) (Graph.degree pattern a))
        active
    in
    let bfs_from seed =
      let queue = Queue.create () in
      seen.(seed) <- true;
      Queue.add seed queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        order := u :: !order;
        let next =
          Array.to_list (Graph.neighbors pattern u)
          |> List.filter (fun v -> not seen.(v))
          |> List.sort (fun a b ->
                 compare (Graph.degree pattern b) (Graph.degree pattern a))
        in
        List.iter
          (fun v ->
            seen.(v) <- true;
            Queue.add v queue)
          next
      done
    in
    List.iter (fun v -> if not seen.(v) then bfs_from v) by_degree_desc;
    Array.of_list (List.rev !order)

  let compatible pattern target mapping v candidate =
    Graph.degree target candidate >= Graph.degree pattern v
    && Array.for_all
         (fun u ->
           let image = mapping.(u) in
           image < 0 || Graph.mem_edge target image candidate)
         (Graph.neighbors pattern v)

  let enumerate ?(limit = 100) ~pattern ~target () =
    if limit <= 0 then []
    else begin
      let order = ordering pattern in
      let np = Graph.n pattern in
      let nt = Graph.n target in
      let mapping = Array.make np (-1) in
      let used = Array.make nt false in
      let results = ref [] in
      let count = ref 0 in
      let rec extend step =
        if !count >= limit then ()
        else if step >= Array.length order then begin
          results := Array.copy mapping :: !results;
          incr count
        end
        else begin
          let v = order.(step) in
          let candidates =
            let mapped_neighbor =
              Array.fold_left
                (fun acc u -> if acc >= 0 then acc else mapping.(u))
                (-1) (Graph.neighbors pattern v)
            in
            if mapped_neighbor >= 0 then Graph.neighbors target mapped_neighbor
            else Array.init nt (fun i -> i)
          in
          Array.iter
            (fun c ->
              if
                !count < limit && (not used.(c))
                && compatible pattern target mapping v c
              then begin
                mapping.(v) <- c;
                used.(c) <- true;
                extend (step + 1);
                used.(c) <- false;
                mapping.(v) <- -1
              end)
            candidates
        end
      in
      if Graph.max_degree pattern > Graph.max_degree target then []
      else begin
        extend 0;
        List.rev !results
      end
    end

  (* Seed Hamiltonian search: plain backtracking, no pruning. *)
  let hamilton g ~closed =
    let size = Graph.n g in
    if size = 0 then None
    else if size = 1 then Some [ 0 ]
    else if
      closed
      && List.exists (fun v -> Graph.degree g v < 2) (Graph.vertices g)
    then None
    else begin
      let visited = Array.make size false in
      let route = ref [] in
      let start =
        let best = ref 0 in
        List.iter
          (fun v -> if Graph.degree g v < Graph.degree g !best then best := v)
          (Graph.vertices g);
        !best
      in
      let rec extend v depth =
        visited.(v) <- true;
        route := v :: !route;
        let ok =
          if depth = size then (not closed) || Graph.mem_edge g v start
          else
            Array.exists
              (fun w -> (not visited.(w)) && extend w (depth + 1))
              (Graph.neighbors g v)
        in
        if not ok then begin
          visited.(v) <- false;
          route := List.tl !route
        end;
        ok
      in
      if extend start 1 then Some (List.rev !route) else None
    end

  (* Incremental existence search with candidate sets built by intersecting
     target neighbor masks, kept verbatim apart from three probes: the node
     count and budget cut-off of the last query (the production search
     must walk the same DFS tree: same answers, same witnesses, same node
     count, same cut-off), and a running count of seed steps that move on
     to a second candidate, so tests can show they exercised
     backtracking at component seeds. *)
  module Incremental = struct
    let by_degree_desc degree a b =
      match Int.compare (degree b) (degree a) with
      | 0 -> Int.compare a b
      | c -> c

    type t = {
      qubits : int;
      target : Graph.t;
      nt : int;
      deg_t : int array;
      max_deg_t : int;
      pmask : int array array; (* pattern adjacency bitsets, over qubits *)
      pdeg : int array;
      (* per-query scratch, allocated once *)
      mapping : int array;
      used : int array;
      cand : int array array;
      order : int array;
      seen : bool array;
      mutable nodes : int;
      mutable exhausted : bool;
      mutable seed_retries : int;
    }

    let create ~qubits ~target =
      {
        qubits;
        target;
        nt = Graph.n target;
        deg_t = Array.init (Graph.n target) (Graph.degree target);
        max_deg_t = Graph.max_degree target;
        pmask = Array.init qubits (fun _ -> Graph.mask_make qubits);
        pdeg = Array.make qubits 0;
        mapping = Array.make qubits (-1);
        used = Graph.mask_make (Graph.n target);
        cand = Array.init (max 1 qubits) (fun _ -> Graph.mask_make (Graph.n target));
        order = Array.make (max 1 qubits) 0;
        seen = Array.make qubits false;
        nodes = 0;
        exhausted = false;
        seed_retries = 0;
      }

    let reset inc =
      Array.iter (fun m -> Array.fill m 0 (Array.length m) 0) inc.pmask;
      Array.fill inc.pdeg 0 inc.qubits 0

    let mem inc a b = Graph.mask_mem inc.pmask.(a) b

    let add inc (a, b) =
      if a <> b && not (mem inc a b) then begin
        Graph.mask_set inc.pmask.(a) b;
        Graph.mask_set inc.pmask.(b) a;
        inc.pdeg.(a) <- inc.pdeg.(a) + 1;
        inc.pdeg.(b) <- inc.pdeg.(b) + 1
      end

    let remove inc (a, b) =
      if a <> b && mem inc a b then begin
        Graph.mask_clear inc.pmask.(a) b;
        Graph.mask_clear inc.pmask.(b) a;
        inc.pdeg.(a) <- inc.pdeg.(a) - 1;
        inc.pdeg.(b) <- inc.pdeg.(b) - 1
      end

    let build_order inc =
      let len = ref 0 in
      Array.fill inc.seen 0 inc.qubits false;
      let cmp = by_degree_desc (fun q -> inc.pdeg.(q)) in
      let seeds = ref [] in
      for q = inc.qubits - 1 downto 0 do
        if inc.pdeg.(q) > 0 then seeds := q :: !seeds
      done;
      let seeds = Array.of_list !seeds in
      Array.sort cmp seeds;
      let queue = Queue.create () in
      Array.iter
        (fun seed ->
          if not inc.seen.(seed) then begin
            inc.seen.(seed) <- true;
            Queue.add seed queue;
            while not (Queue.is_empty queue) do
              let u = Queue.pop queue in
              inc.order.(!len) <- u;
              incr len;
              Graph.iter_mask
                (fun v ->
                  if not inc.seen.(v) then begin
                    inc.seen.(v) <- true;
                    Queue.add v queue
                  end)
                inc.pmask.(u)
            done
          end)
        seeds;
      !len

    exception Found

    exception Exhausted

    let search ?budget inc =
      let budget = match budget with None -> max_int | Some b -> b in
      inc.nodes <- 0;
      inc.exhausted <- false;
      let order_len = build_order inc in
      (* Quick refutations: an active qubit needs a target vertex of at least
         its degree; active qubits need distinct target vertices. *)
      let feasible = ref (order_len <= inc.nt) in
      for i = 0 to order_len - 1 do
        if inc.pdeg.(inc.order.(i)) > inc.max_deg_t then feasible := false
      done;
      if not !feasible then None
      else begin
        Array.fill inc.mapping 0 inc.qubits (-1);
        Array.fill inc.used 0 (Array.length inc.used) 0;
        let witness = ref None in
        let nodes = ref 0 in
        let rec extend step =
          if step >= order_len then begin
            witness := Some (Array.copy inc.mapping);
            raise Found
          end
          else begin
            let v = inc.order.(step) in
            let try_candidate c =
              incr nodes;
              if !nodes > budget then raise Exhausted;
              inc.mapping.(v) <- c;
              Graph.mask_set inc.used c;
              extend (step + 1);
              Graph.mask_clear inc.used c;
              inc.mapping.(v) <- -1
            in
            let deg_ok c = inc.deg_t.(c) >= inc.pdeg.(v) in
            let mask = inc.cand.(step) in
            let constrained = ref false in
            Graph.iter_mask
              (fun u ->
                let image = inc.mapping.(u) in
                if image >= 0 then begin
                  let nm = Graph.neighbor_mask inc.target image in
                  if !constrained then Graph.mask_inter_into ~into:mask nm
                  else begin
                    Array.blit nm 0 mask 0 (Array.length nm);
                    constrained := true
                  end
                end)
              inc.pmask.(v);
            if !constrained then begin
              Graph.mask_diff_into ~into:mask inc.used;
              Graph.iter_mask (fun c -> if deg_ok c then try_candidate c) mask
            end
            else begin
              let tried = ref false in
              for c = 0 to inc.nt - 1 do
                if (not (Graph.mask_mem inc.used c)) && deg_ok c then begin
                  if !tried then inc.seed_retries <- inc.seed_retries + 1;
                  tried := true;
                  try_candidate c
                end
              done
            end
          end
        in
        (try extend 0 with
        | Found -> ()
        | Exhausted -> inc.exhausted <- true);
        inc.nodes <- Int.min !nodes budget;
        !witness
      end

    let embeds_with ?budget inc ((a, b) as pair) =
      let fresh = not (mem inc a b) in
      if fresh then add inc pair;
      let result = search ?budget inc in
      if fresh then remove inc pair;
      result
  end
end

(* ------------------------------------------------------------------ *)
(* Random instances                                                    *)
(* ------------------------------------------------------------------ *)

let random_graph rng n ~edge_chance =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng 1.0 < edge_chance then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges n !edges

(* A pattern over the same vertex budget, sparse enough to be embeddable
   reasonably often: either a random sparse graph or a random path. *)
let random_pattern rng np =
  if Rng.bool rng then random_graph rng np ~edge_chance:0.3
  else begin
    let perm = Rng.permutation rng np in
    let edges = ref [] in
    for i = 0 to np - 2 do
      if Rng.float rng 1.0 < 0.8 then edges := (perm.(i), perm.(i + 1)) :: !edges
    done;
    Graph.of_edges np !edges
  end

let mapping_list = Alcotest.(list (array int))

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_enumerate_matches_reference () =
  for seed = 0 to 49 do
    let rng = Rng.create (1000 + seed) in
    let nt = 4 + Rng.int rng 8 in
    let target = random_graph rng nt ~edge_chance:(0.2 +. Rng.float rng 0.4) in
    let np = 2 + Rng.int rng 5 in
    let pattern = random_pattern rng np in
    List.iter
      (fun limit ->
        let expected = Reference.enumerate ~limit ~pattern ~target () in
        let actual = Monomorph.enumerate ~limit ~pattern ~target () in
        Alcotest.check mapping_list
          (Printf.sprintf "seed %d limit %d" seed limit)
          expected actual)
      [ 1; 3; 100 ]
  done

let test_enumerate_matches_reference_multiword () =
  (* Targets above 63 vertices exercise the multi-word search path. *)
  for seed = 0 to 9 do
    let rng = Rng.create (2000 + seed) in
    let nt = 64 + Rng.int rng 16 in
    let target = random_graph rng nt ~edge_chance:0.05 in
    let pattern = random_pattern rng (2 + Rng.int rng 4) in
    List.iter
      (fun limit ->
        let expected = Reference.enumerate ~limit ~pattern ~target () in
        let actual = Monomorph.enumerate ~limit ~pattern ~target () in
        Alcotest.check mapping_list
          (Printf.sprintf "seed %d limit %d" seed limit)
          expected actual)
      [ 1; 7; 100 ]
  done

let test_parallel_matches_sequential () =
  for seed = 0 to 19 do
    let rng = Rng.create (3000 + seed) in
    let nt = 5 + Rng.int rng 7 in
    let target = random_graph rng nt ~edge_chance:(0.3 +. Rng.float rng 0.3) in
    let pattern = random_pattern rng (2 + Rng.int rng 4) in
    List.iter
      (fun limit ->
        let sequential = Monomorph.enumerate ~limit ~pattern ~target () in
        List.iter
          (fun jobs ->
            let parallel =
              Monomorph.enumerate ~limit ~jobs ~pattern ~target ()
            in
            Alcotest.check mapping_list
              (Printf.sprintf "seed %d limit %d jobs %d" seed limit jobs)
              sequential parallel)
          [ 2; 3 ])
      [ 2; 100 ]
  done

let hamilton_fixtures () =
  [
    ("cycle-5", Gen.cycle_graph 5);
    ("cycle-8", Gen.cycle_graph 8);
    ("complete-5", Gen.complete 5);
    ("path-6", Gen.path_graph 6);
    ("star-6", Gen.star 6);
    ("petersen", Gen.petersen ());
    ("grid-2x3", Gen.grid 2 3);
    ("grid-3x3", Gen.grid 3 3);
    ("binary-tree-7", Gen.binary_tree 7);
  ]

let test_hamilton_matches_reference () =
  let route = Alcotest.(option (list int)) in
  List.iter
    (fun (name, g) ->
      Alcotest.check route (name ^ " cycle")
        (Reference.hamilton g ~closed:true)
        (Hamilton.cycle g);
      Alcotest.check route (name ^ " path")
        (Reference.hamilton g ~closed:false)
        (Hamilton.path g))
    (hamilton_fixtures ());
  for seed = 0 to 29 do
    let rng = Rng.create (4000 + seed) in
    let n = 3 + Rng.int rng 6 in
    let g = random_graph rng n ~edge_chance:(0.2 +. Rng.float rng 0.5) in
    Alcotest.check route
      (Printf.sprintf "seed %d cycle" seed)
      (Reference.hamilton g ~closed:true)
      (Hamilton.cycle g);
    Alcotest.check route
      (Printf.sprintf "seed %d path" seed)
      (Reference.hamilton g ~closed:false)
      (Hamilton.path g)
  done

let test_incremental_matches_oracle () =
  for seed = 0 to 29 do
    let rng = Rng.create (5000 + seed) in
    let nt = 4 + Rng.int rng 6 in
    let target = random_graph rng nt ~edge_chance:(0.3 +. Rng.float rng 0.4) in
    let qubits = 3 + Rng.int rng 5 in
    let inc = Monomorph.Incremental.create ~qubits ~target in
    let admitted = ref [] in
    for step = 0 to 14 do
      let a = Rng.int rng qubits and b = Rng.int rng qubits in
      if a <> b then begin
        let pair = (min a b, max a b) in
        let pattern = Graph.of_edges qubits (pair :: !admitted) in
        let expected = Monomorph.exists ~pattern ~target in
        let witness = Monomorph.Incremental.embeds_with inc pair in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d step %d answer" seed step)
          expected (witness <> None);
        (match witness with
        | Some m ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d step %d witness valid" seed step)
            true
            (Monomorph.check ~pattern ~target m)
        | None -> ());
        (* Grow the pattern when the pair fits, as the workspace does. *)
        if expected && not (List.mem pair !admitted) then begin
          Monomorph.Incremental.add inc pair;
          admitted := pair :: !admitted
        end
      end
    done;
    (* After a reset the engine accepts a fresh sequence. *)
    Monomorph.Incremental.reset inc;
    let pair = (0, 1) in
    let expected =
      Monomorph.exists ~pattern:(Graph.of_edges qubits [ pair ]) ~target
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d post-reset" seed)
      expected
      (Monomorph.Incremental.embeds_with inc pair <> None)
  done

(* One query against both incremental searches: the identical
   [int array option] (the same answer and the same first witness), the
   same node count and the same budget cut-off.  The production query is
   bracketed by [Gc.minor_words] (unboxed, so the probe itself allocates
   nothing): it may allocate its witness -- the array and its [Some] --
   and not one word more. *)
let query_both ~label ?budget inc reference pair =
  let expected = Reference.Incremental.embeds_with ?budget reference pair in
  let before = Gc.minor_words () in
  let actual = Monomorph.Incremental.embeds_with ?budget inc pair in
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check (option (array int))) label expected actual;
  Alcotest.(check int) (label ^ " nodes") reference.Reference.Incremental.nodes
    (Monomorph.Incremental.last_nodes inc);
  Alcotest.(check bool) (label ^ " cut off")
    reference.Reference.Incremental.exhausted
    (Monomorph.Incremental.last_exhausted inc);
  Alcotest.(check int) (label ^ " words allocated")
    (match actual with None -> 0 | Some w -> Array.length w + 3)
    words;
  actual

let budget_label = function None -> "unbounded" | Some b -> string_of_int b

(* Near-spanning patterns on the scale grid, queried first so a search
   that breaks the tree fails here before any unbounded query runs.  A
   256-qubit pattern grows from a hidden-stage circuit the way the splitter
   grows a stage -- a new pair is committed when its 10 000-node query
   embeds it -- to 234 pairs, the size of a median refused stage pattern
   on the scale grid: over 200 active qubits in several components.
   These are the queries stage formation spends its time on: budget
   cut-offs and component seeds that backtrack. *)
let near_spanning () =
  let target = Gen.grid 16 16 in
  let qubits = 256 in
  let inc = Monomorph.Incremental.create ~qubits ~target in
  let reference = Reference.Incremental.create ~qubits ~target in
  let circuit =
    Qcp_circuit.Random_circuit.hidden_stages_custom (Rng.create 4242) ~n:qubits
      ~stages:4 ~gates_per_stage:6400
  in
  let pairs =
    List.filter_map
      (fun g ->
        match Qcp_circuit.Gate.qubits g with
        | [ a; b ] -> Some (Int.min a b, Int.max a b)
        | _ -> None)
      (Qcp_circuit.Circuit.gates circuit)
  in
  let top = Some 10_000 in
  let admitted = ref [] and exhausted = ref 0 in
  let rec grow step = function
    | [] -> Alcotest.fail "circuit ran out before the pattern grew"
    | pair :: rest ->
      if List.length !admitted >= 234 then step
      else if List.mem pair !admitted then grow step rest
      else begin
        let answers =
          List.map
            (fun budget ->
              let answer =
                query_both
                  ~label:
                    (Printf.sprintf "grid-16x16 step %d budget %s" step
                       (budget_label budget))
                  ?budget inc reference pair
              in
              if budget = top && Monomorph.Incremental.last_exhausted inc then
                incr exhausted;
              answer)
            [ Some 50; top ]
        in
        if List.nth answers 1 <> None then begin
          Monomorph.Incremental.add inc pair;
          Reference.Incremental.add reference pair;
          admitted := pair :: !admitted
        end;
        grow (step + 1) rest
      end
  in
  let steps = grow 0 pairs in
  let pattern = Graph.of_edges qubits !admitted in
  let active =
    List.filter (fun q -> Graph.degree pattern q > 0) (Graph.vertices pattern)
  in
  let comp, _ = Qcp_graph.Paths.components pattern in
  let components =
    List.length (List.sort_uniq Int.compare (List.map (fun q -> comp.(q)) active))
  in
  Alcotest.(check bool)
    (Printf.sprintf "grew to %d active qubits in %d components over %d queries"
       (List.length active) components steps)
    true
    (List.length active >= 200 && components >= 2);
  Alcotest.(check bool) "some 10 000-node queries are cut off" true
    (!exhausted > 0);
  Alcotest.(check bool) "some component seeds backtrack" true
    (reference.Reference.Incremental.seed_retries > 0)

(* Seeded add/query sequences on small targets: every query at every
   budget must agree with the reference, and some 50-node queries must run
   out of budget where the top budget answers, so the cut-off itself is
   compared (budgets 0 and 1 cut off every query that needs a node).  The
   top budget is unbounded on the small targets; on the 64-vertex grid,
   whose masks span two words, it is the splitter's 10 000 nodes. *)
let test_incremental_matches_reference () =
  near_spanning ();
  let exhausted = ref 0 in
  let targets =
    [
      ("grid-4x4", Gen.grid 4 4, None);
      ("grid-3x5", Gen.grid 3 5, None);
      ("heavy-hex", Gen.heavy_hex ~rows:3 ~cols:5, None);
      ("cycle-10", Gen.cycle_graph 10, None);
      ("cycle-14", Gen.cycle_graph 14, None);
      ("random-12", random_graph (Rng.create 7001) 12 ~edge_chance:0.3, None);
      ("random-14", random_graph (Rng.create 7002) 14 ~edge_chance:0.2, None);
      ("grid-8x8", Gen.grid 8 8, Some 10_000);
    ]
  in
  List.iteri
    (fun ti (name, target, top) ->
      let budgets = [ Some 0; Some 1; Some 50; top ] in
      for seed = 0 to 4 do
        let rng = Rng.create (7100 + (10 * ti) + seed) in
        let qubits = Int.min 12 (Graph.n target) in
        let inc = Monomorph.Incremental.create ~qubits ~target in
        let reference = Reference.Incremental.create ~qubits ~target in
        let query step pair =
          List.map
            (fun budget ->
              query_both
                ~label:
                  (Printf.sprintf "%s seed %d step %d budget %s" name seed step
                     (budget_label budget))
                ?budget inc reference pair)
            budgets
        in
        for step = 0 to 39 do
          let a = Rng.int rng qubits and b = Rng.int rng qubits in
          if a <> b then begin
            let answers = query step (a, b) in
            if List.nth answers 3 <> None then begin
              if List.nth answers 2 = None then incr exhausted;
              Monomorph.Incremental.add inc (a, b);
              Reference.Incremental.add reference (a, b)
            end
          end
        done;
        Monomorph.Incremental.reset inc;
        Reference.Incremental.reset reference;
        ignore (query 40 (0, 1) : int array option list)
      done)
    targets;
  Alcotest.(check bool) "some bounded queries exhaust" true (!exhausted > 0)

let test_degree_suffix () =
  for seed = 0 to 9 do
    let rng = Rng.create (6000 + seed) in
    let n = 2 + Rng.int rng 10 in
    let g = random_graph rng n ~edge_chance:(Rng.float rng 1.0) in
    let s = Graph.degree_suffix g in
    Alcotest.(check int)
      (Printf.sprintf "seed %d length" seed)
      (Graph.max_degree g + 2)
      (Array.length s);
    Array.iteri
      (fun d count ->
        let expected =
          List.length
            (List.filter (fun v -> Graph.degree g v >= d) (Graph.vertices g))
        in
        Alcotest.(check int) (Printf.sprintf "seed %d suffix %d" seed d)
          expected count)
      s
  done

let suite =
  [
    Alcotest.test_case "enumerate matches seed enumerator" `Quick
      test_enumerate_matches_reference;
    Alcotest.test_case "enumerate matches on multi-word targets" `Quick
      test_enumerate_matches_reference_multiword;
    Alcotest.test_case "parallel enumeration matches sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "hamilton pruning matches seed search" `Quick
      test_hamilton_matches_reference;
    Alcotest.test_case "incremental oracle matches enumerator" `Quick
      test_incremental_matches_oracle;
    Alcotest.test_case "incremental search walks the reference tree" `Quick
      test_incremental_matches_reference;
    Alcotest.test_case "degree suffix counts" `Quick test_degree_suffix;
  ]
