(* Bisection by spanning-tree edge removal: removing one tree edge splits the
   tree into two connected subtrees, and tree-connectivity implies
   graph-connectivity of both sides.  We try BFS trees from several roots and
   keep the most balanced split.

   Everything works on the vertex ids of the whole graph, restricted to the
   subset by stamped membership, so no induced subgraph is built: the
   subset's vertices in ascending order are the induced subgraph's vertices
   in index order, and its adjacency rows (ascending) are the graph's rows
   filtered to the subset. *)

(* Per-domain work arrays over vertex ids, grown to the largest graph seen
   and never cleared: a call touches only its subset's entries, so it
   costs time and allocation in the subset's size, not the graph's. *)
type work = {
  mutable stamp : int;
  mutable inside : int array; (* inside.(v) = stamp: v is in the subset *)
  mutable parent : int array; (* BFS parent, the root its own; -1 unseen *)
  mutable order : int array; (* BFS visiting order *)
  mutable value : int array; (* subtree size, side flag or BFS distance *)
}

let work_key =
  Domain.DLS.new_key (fun () ->
      { stamp = 0; inside = [||]; parent = [||]; order = [||]; value = [||] })

(* The domain's work arrays with [vertices] stamped as the subset. *)
let enter g vertices =
  let w = Domain.DLS.get work_key in
  let n = Graph.n g in
  if Array.length w.inside < n then begin
    w.inside <- Array.make n 0;
    w.parent <- Array.make n 0;
    w.order <- Array.make n 0;
    w.value <- Array.make n 0
  end;
  w.stamp <- w.stamp + 1;
  Array.iter
    (fun v ->
      w.inside.(v) <- w.stamp;
      w.parent.(v) <- -1)
    vertices;
  w

let reset w vertices = Array.iter (fun v -> w.parent.(v) <- -1) vertices

(* BFS over the subset from [root]; returns how many vertices it reached,
   in [w.order], with [w.parent] set for each of them. *)
let bfs g w root =
  w.parent.(root) <- root;
  w.order.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = w.order.(!head) in
    incr head;
    let row = Graph.neighbors g u in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      if w.inside.(v) = w.stamp && w.parent.(v) < 0 then begin
        w.parent.(v) <- u;
        w.order.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

(* Subtree sizes in reverse BFS order: every child comes after its
   parent. *)
let subtree_sizes w size =
  for i = 0 to size - 1 do
    w.value.(w.order.(i)) <- 1
  done;
  for i = size - 1 downto 1 do
    let v = w.order.(i) in
    let p = w.parent.(v) in
    w.value.(p) <- w.value.(p) + w.value.(v)
  done

(* Every vertex of a subset of at most 64, else 16 evenly spaced ones (by
   position in the ascending subset). *)
let candidate_roots size =
  if size <= 64 then size else 16

let candidate_root vertices i =
  let size = Array.length vertices in
  if size <= 64 then vertices.(i) else vertices.(i * (size / 16))

let bisect g vertices =
  let size = Array.length vertices in
  if size < 2 then None
  else begin
    let w = enter g vertices in
    if bfs g w vertices.(0) < size then None
    else begin
      (* The first strictly larger small side wins, roots in order and
         vertices ascending within a root; no side exceeds [size / 2]. *)
      let best_small = ref 0 and best_cut = ref (-1) and best_root = ref (-1) in
      let i = ref 0 in
      while !i < candidate_roots size && !best_small < size / 2 do
        let root = candidate_root vertices !i in
        (* The first root's tree is the connectivity check's. *)
        if !i > 0 then begin
          reset w vertices;
          ignore (bfs g w root : int)
        end;
        subtree_sizes w size;
        for j = 0 to size - 1 do
          let v = vertices.(j) in
          if v <> root then begin
            let below = w.value.(v) in
            let small = min below (size - below) in
            if small > !best_small then begin
              best_small := small;
              best_cut := v;
              best_root := root
            end
          end
        done;
        incr i
      done;
      (* The cut vertex's subtree in the winning tree (flag 1): descendants
         follow their ancestors in BFS order. *)
      reset w vertices;
      ignore (bfs g w !best_root : int);
      let below = w.value in
      below.(w.order.(0)) <- 0;
      for i = 1 to size - 1 do
        let v = w.order.(i) in
        below.(v) <- (if v = !best_cut then 1 else below.(w.parent.(v)))
      done;
      let count = ref 0 in
      Array.iter (fun v -> count := !count + below.(v)) vertices;
      let side_a = Array.make !count 0 and side_b = Array.make (size - !count) 0 in
      let a = ref 0 and b = ref 0 in
      Array.iter
        (fun v ->
          if below.(v) = 1 then begin
            side_a.(!a) <- v;
            incr a
          end
          else begin
            side_b.(!b) <- v;
            incr b
          end)
        vertices;
      if !count <= size - !count then Some (side_a, side_b) else Some (side_b, side_a)
    end
  end

let tree_order g half ~root =
  let w = enter g half in
  let reached = bfs g w root in
  if reached < Array.length half then
    invalid_arg "Separator.tree_order: subset not connected from its root";
  (* Distances in BFS order, then a counting sort over the ascending
     subset, which keeps ties in vertex order. *)
  let dist = w.value in
  dist.(root) <- 0;
  for i = 1 to reached - 1 do
    let v = w.order.(i) in
    dist.(v) <- dist.(w.parent.(v)) + 1
  done;
  let starts = Array.make (dist.(w.order.(reached - 1)) + 2) 0 in
  Array.iter (fun v -> starts.(dist.(v) + 1) <- starts.(dist.(v) + 1) + 1) half;
  for d = 1 to Array.length starts - 1 do
    starts.(d) <- starts.(d) + starts.(d - 1)
  done;
  let order = Array.make reached 0 in
  Array.iter
    (fun v ->
      order.(starts.(dist.(v))) <- v;
      starts.(dist.(v)) <- starts.(dist.(v)) + 1)
    half;
  (order, Array.map (fun v -> w.parent.(v)) order)

let ratio small large =
  let a = float_of_int (Array.length small) in
  let b = float_of_int (Array.length large) in
  if a = 0.0 || b = 0.0 then 0.0 else min a b /. max a b

let separability g =
  let rec loop vertices =
    if Array.length vertices < 2 then 1.0
    else
      match bisect g vertices with
      | None -> 0.0
      | Some (side_a, side_b) ->
        min (ratio side_a side_b) (min (loop side_a) (loop side_b))
  in
  loop (Array.init (Graph.n g) Fun.id)

let theorem1_bound g =
  let k = Graph.max_degree g in
  if k = 0 then 1.0 else 1.0 /. float_of_int k
