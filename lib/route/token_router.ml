module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths

let route g ~perm =
  let n = Graph.n g in
  if Array.length perm <> n then
    invalid_arg "Token_router.route: permutation size mismatch";
  if not (Perm.is_valid perm) then invalid_arg "Token_router.route: not a permutation";
  if not (Paths.is_connected g) then
    invalid_arg "Token_router.route: adjacency graph must be connected";
  if n = 0 then []
  else begin
    let config = Array.init n (fun v -> v) in
    let position = Array.init n (fun v -> v) in
    (* position.(token) = current vertex of the token *)
    let swap u v =
      let tu = config.(u) and tv = config.(v) in
      config.(u) <- tv;
      config.(v) <- tu;
      position.(tu) <- v;
      position.(tv) <- u
    in
    (* Reverse BFS order: retiring the last vertex keeps the prefix
       connected, because BFS prefixes are connected. *)
    let bfs_order =
      let dist = Paths.bfs_dist g 0 in
      List.sort
        (fun a b ->
          match Int.compare dist.(a) dist.(b) with
          | 0 -> Int.compare a b
          | c -> c)
        (Graph.vertices g)
      |> Array.of_list
    in
    let active = Array.make n true in
    (* inverse.(target) = the token destined to [target] *)
    let inverse = Perm.inverse perm in
    let levels = ref [] in
    for i = n - 1 downto 0 do
      let target = bfs_order.(i) in
      let source = position.(inverse.(target)) in
      (match Paths.shortest_path ~restrict:(fun v -> active.(v)) g source target with
      | None -> invalid_arg "Token_router.route: active subgraph disconnected"
      | Some path ->
        let rec walk = function
          | a :: (b :: _ as rest) ->
            swap a b;
            levels := [ (a, b) ] :: !levels;
            walk rest
          | [ _ ] | [] -> ()
        in
        walk path);
      active.(target) <- false
    done;
    List.rev !levels
  end
