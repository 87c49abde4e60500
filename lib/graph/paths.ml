let bfs_core ?(restrict = fun _ -> true) g source =
  let size = Graph.n g in
  let dist = Array.make size (-1) in
  let parent = Array.make size (-1) in
  let queue = Queue.create () in
  assert (restrict source);
  dist.(source) <- 0;
  parent.(source) <- source;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 && restrict v then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  (dist, parent)

let bfs_dist ?restrict g source = fst (bfs_core ?restrict g source)

let bfs_parents ?restrict g source = snd (bfs_core ?restrict g source)

let shortest_path ?restrict g source dest =
  let _, parent = bfs_core ?restrict g source in
  if parent.(dest) < 0 then None
  else begin
    let rec climb v acc = if v = source then source :: acc else climb parent.(v) (v :: acc) in
    Some (climb dest [])
  end

(* Dijkstra's frontier: (tentative distance, vertex), nearest first. *)
module Frontier_key = struct
  type t = float * int

  let compare (d1, v1) (d2, v2) =
    match Float.compare d1 d2 with 0 -> Int.compare v1 v2 | c -> c
end

let weighted_dist ~cost g source =
  (* Applied here, not at toplevel: instantiating the functor when the
     module loads perturbs the heap of every program that links this
     library, weighted paths or not. *)
  let module Frontier = Set.Make (Frontier_key) in
  let dist = Array.make (Graph.n g) infinity in
  dist.(source) <- 0.0;
  let relax u d frontier v =
    let c = cost u v in
    if c < 0.0 then invalid_arg "Paths.all_pairs_weighted: negative edge cost";
    let dv = d +. c in
    if dv < dist.(v) then begin
      let frontier = Frontier.remove (dist.(v), v) frontier in
      dist.(v) <- dv;
      Frontier.add (dv, v) frontier
    end
    else frontier
  in
  let rec settle frontier =
    match Frontier.min_elt_opt frontier with
    | None -> ()
    | Some ((d, u) as nearest) ->
      settle
        (Array.fold_left (relax u d)
           (Frontier.remove nearest frontier)
           (Graph.neighbors g u))
  in
  settle (Frontier.singleton (0.0, source));
  dist

let all_pairs_weighted ~cost g =
  Array.init (Graph.n g) (weighted_dist ~cost g)

let components g =
  let size = Graph.n g in
  let comp = Array.make size (-1) in
  let count = ref 0 in
  for v = 0 to size - 1 do
    if comp.(v) < 0 then begin
      let dist = bfs_dist g v in
      Array.iteri (fun u d -> if d >= 0 then comp.(u) <- !count) dist;
      incr count
    end
  done;
  (comp, !count)

let component_members g =
  let comp, count = components g in
  let buckets = Array.make count [] in
  for v = Graph.n g - 1 downto 0 do
    buckets.(comp.(v)) <- v :: buckets.(comp.(v))
  done;
  Array.to_list buckets

let is_connected g = Graph.n g <= 1 || snd (components g) = 1

let is_bipartite g =
  let side = Array.make (Graph.n g) (-1) in
  for v = 0 to Graph.n g - 1 do
    if side.(v) < 0 then
      Array.iteri (fun u d -> if d >= 0 then side.(u) <- d land 1) (bfs_dist g v)
  done;
  List.for_all (fun (u, v) -> side.(u) <> side.(v)) (Graph.edges g)

let is_connected_subset g vs =
  match vs with
  | [] -> true
  | first :: _ ->
    let inside = Array.make (Graph.n g) false in
    List.iter (fun v -> inside.(v) <- true) vs;
    let dist = bfs_dist ~restrict:(fun v -> inside.(v)) g first in
    List.for_all (fun v -> dist.(v) >= 0) vs

let spanning_tree g ~root =
  let parent = bfs_parents g root in
  let acc = ref [] in
  Array.iteri
    (fun v p -> if p >= 0 && p <> v then acc := (min v p, max v p) :: !acc)
    parent;
  List.sort compare !acc
