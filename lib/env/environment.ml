module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths

type t = {
  env_name : string;
  nuclei : string array;
  delay : float array array;
  decoherence : float array; (* T2 per nucleus, in delay units *)
  mutable adj_cache : (float * Qcp_graph.Graph.t option) list;
      (* Memoized [connected_adjacency] per threshold (newest first, small
         cap), one physical graph per distinct edge set.  The graph depends
         only on [delay], which never changes, so entries stay valid for
         the record's lifetime; returning the same physical graph also lets
         downstream per-graph memos (the bisection router's subset
         structure, the cross-run route tables) survive across placement
         runs and across thresholds with equal fast graphs.  Guarded
         by [adj_lock] so concurrent [Portfolio.place_batch] jobs agree on
         one physical graph per threshold — that identity is what keys the
         cross-run route registry they share. *)
  adj_lock : Mutex.t;
}

let make ?t2 ~name ~nuclei ~delay () =
  let m = Array.length nuclei in
  if Array.length delay <> m then invalid_arg "Environment.make: delay matrix size";
  Array.iter
    (fun row ->
      if Array.length row <> m then invalid_arg "Environment.make: delay matrix not square")
    delay;
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if delay.(i).(j) < 0.0 then invalid_arg "Environment.make: negative delay";
      if delay.(i).(j) <> delay.(j).(i) then
        invalid_arg "Environment.make: delay matrix not symmetric"
    done
  done;
  let decoherence =
    match t2 with
    | None -> Array.make m Float.infinity
    | Some arr ->
      if Array.length arr <> m then invalid_arg "Environment.make: t2 size";
      Array.iter
        (fun v -> if v <= 0.0 then invalid_arg "Environment.make: non-positive T2")
        arr;
      Array.copy arr
  in
  { env_name = name; nuclei = Array.copy nuclei; delay = Array.map Array.copy delay;
    decoherence; adj_cache = []; adj_lock = Mutex.create () }

let of_couplings ?t2 ~name ~nuclei ~single ~couplings ?(default = Float.infinity) () =
  let m = Array.length nuclei in
  if Array.length single <> m then invalid_arg "Environment.of_couplings: single size";
  let delay = Array.make_matrix m m default in
  for i = 0 to m - 1 do
    delay.(i).(i) <- single.(i)
  done;
  List.iter
    (fun (i, j, d) ->
      if i = j then invalid_arg "Environment.of_couplings: diagonal coupling";
      delay.(i).(j) <- d;
      delay.(j).(i) <- d)
    couplings;
  make ?t2 ~name ~nuclei ~delay ()

let name t = t.env_name

let size t = Array.length t.nuclei

let nucleus t i = t.nuclei.(i)

let nucleus_index t label =
  let rec find i =
    if i >= Array.length t.nuclei then None
    else if t.nuclei.(i) = label then Some i
    else find (i + 1)
  in
  find 0

let single_delay t i = t.delay.(i).(i)

let t2 t i = t.decoherence.(i)

let with_t2 t values =
  if Array.length values <> size t then invalid_arg "Environment.with_t2: size";
  { t with decoherence = Array.copy values }

let coupling_delay t i j = t.delay.(i).(j)

let weights t = t.delay

let fast_pairs t ~threshold =
  let m = size t in
  List.concat_map
    (fun i ->
      List.filter_map
        (fun j -> if t.delay.(i).(j) < threshold then Some (i, j) else None)
        (Qcp_util.Listx.range_from (i + 1) m))
    (Qcp_util.Listx.range m)

let adjacency t ~threshold = Graph.of_edges (size t) (fast_pairs t ~threshold)

(* Kruskal-flavored closure: join components of the threshold graph with the
   cheapest available couplings until connected. *)
let closure_edges t base =
  let m = size t in
  let comp, count = Paths.components base in
  if count <= 1 then []
  else begin
    let parent = Array.init count (fun i -> i) in
    let rec find x = if parent.(x) = x then x else (parent.(x) <- find parent.(x); find parent.(x)) in
    let all_pairs =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun j ->
              if Float.is_finite t.delay.(i).(j) then Some (t.delay.(i).(j), i, j)
              else None)
            (Qcp_util.Listx.range_from (i + 1) m))
        (Qcp_util.Listx.range m)
      |> List.sort (fun (da, ia, ja) (db, ib, jb) ->
             match Float.compare da db with
             | 0 -> (
               match Int.compare ia ib with 0 -> Int.compare ja jb | c -> c)
             | c -> c)
    in
    let added = ref [] in
    List.iter
      (fun (_, i, j) ->
        let a = find comp.(i) and b = find comp.(j) in
        if a <> b then begin
          parent.(a) <- b;
          added := (i, j) :: !added
        end)
      all_pairs;
    !added
  end

let connected_adjacency_uncached t ~threshold =
  let base = adjacency t ~threshold in
  if Graph.is_empty base then None
  else if Paths.is_connected base then Some base
  else begin
    let closed = Graph.add_edges base (closure_edges t base) in
    (* Environments with completely uncoupled nuclei cannot be connected at
       any threshold: such instances are unplaceable. *)
    if Paths.is_connected closed then Some closed else None
  end

(* Table 3 sweeps six thresholds per circuit: all six survive to the
   next circuit. *)
let adj_cache_cap = 8

let connected_adjacency t ~threshold =
  (* The whole lookup-or-compute runs under the lock: the compute is cheap
     (one BFS plus an MST closure on at most a few dozen nuclei) and
     holding the lock across it guarantees every concurrent caller gets the
     same physical graph, which downstream per-graph registries key on. *)
  Mutex.protect t.adj_lock (fun () ->
      match
        List.find_opt (fun (th, _) -> Float.equal th threshold) t.adj_cache
      with
      | Some (_, cached) -> cached
      | None ->
        let graph =
          match connected_adjacency_uncached t ~threshold with
          | None -> None
          | Some g -> (
            (* Graphs are canonical (sorted neighbours), so an equal edge
               set is an interchangeable graph: hand back the one already
               held, and with it its routes. *)
            match
              List.find_map
                (function
                  | _, Some held when Graph.equal held g -> Some held
                  | _ -> None)
                t.adj_cache
            with
            | Some held -> Some held
            | None -> Some g)
        in
        t.adj_cache <-
          Qcp_util.Listx.take adj_cache_cap ((threshold, graph) :: t.adj_cache);
        graph)

let min_threshold_connected t =
  let base = Graph.of_edges (size t) [] in
  let mst = closure_edges t base in
  let longest =
    List.fold_left (fun acc (i, j) -> Float.max acc t.delay.(i).(j)) 0.0 mst
  in
  longest +. 1e-9

let search_space t ~qubits = Qcp_util.Bigdec.falling_factorial (size t) qubits

let to_dot ?threshold t =
  let g =
    match threshold with
    | Some th -> adjacency t ~threshold:th
    | None ->
      Graph.of_edges (size t)
        (List.filter
           (fun (i, j) -> Float.is_finite t.delay.(i).(j))
           (Qcp_util.Listx.pairs (Qcp_util.Listx.range (size t))))
  in
  Qcp_graph.Dot.to_dot ~name:"environment"
    ~vertex_label:(fun v -> Printf.sprintf "%s (%g)" t.nuclei.(v) t.delay.(v).(v))
    ~edge_label:(fun u v -> Some (Printf.sprintf "%g" t.delay.(u).(v)))
    g

let pp ppf t =
  Format.fprintf ppf "environment %s (%d nuclei)@." t.env_name (size t);
  let m = size t in
  for i = 0 to m - 1 do
    Format.fprintf ppf "  %-4s single=%g" t.nuclei.(i) t.delay.(i).(i);
    for j = i + 1 to m - 1 do
      if Float.is_finite t.delay.(i).(j) then
        Format.fprintf ppf "  %s-%s=%g" t.nuclei.(i) t.nuclei.(j) t.delay.(i).(j)
    done;
    Format.fprintf ppf "@."
  done

let named_default base kind count =
  match base with Some n -> n | None -> Printf.sprintf "%s-%d" kind count

let chain ?name ?(single = 1.0) ?(coupling = 10.0) m =
  let nuclei = Array.init m (fun i -> Printf.sprintf "x%d" (i + 1)) in
  of_couplings
    ~name:(named_default name "chain" m)
    ~nuclei
    ~single:(Array.make m single)
    ~couplings:(List.init (max 0 (m - 1)) (fun i -> (i, i + 1, coupling)))
    ()

let of_graph ?name ?(single = 1.0) ?(coupling = 10.0) g =
  let m = Graph.n g in
  let nuclei = Array.init m (fun i -> Printf.sprintf "x%d" (i + 1)) in
  of_couplings
    ~name:(named_default name "graph" m)
    ~nuclei
    ~single:(Array.make m single)
    ~couplings:(List.map (fun (u, v) -> (u, v, coupling)) (Graph.edges g))
    ()

let grid ?name ?single ?coupling rows cols =
  of_graph
    ~name:(named_default name "grid" (rows * cols))
    ?single ?coupling
    (Qcp_graph.Generators.grid rows cols)

let heavy_hex ?name ?single ?coupling rows cols =
  let g = Qcp_graph.Generators.heavy_hex ~rows ~cols in
  of_graph
    ~name:(named_default name "heavyhex" (Graph.n g))
    ?single ?coupling g

let complete_uniform ?name ?single ?coupling m =
  of_graph
    ~name:(named_default name "complete" m)
    ?single ?coupling
    (Qcp_graph.Generators.complete m)
