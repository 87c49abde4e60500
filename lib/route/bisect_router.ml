module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths
module Separator = Qcp_graph.Separator
module Swap_word = Qcp_circuit.Swap_word

exception Routing_failure of string

let depth_upper_bound g = (8 * Graph.n g) + 8

(* Everything the divide-and-conquer recursion derives from a vertex subset
   alone — the bisection, the channel edge and the per-half BFS structure —
   is independent of the permutation being routed.  A memo compiles it once
   per subset into a split tree whose nodes point at their halves' nodes,
   so a route walks the tree without hashing below its root. *)
type node =
  | Unsplittable
  | No_channel
  | Split of split

and split = {
  sa : int array; (* small half, ascending vertex ids *)
  sb : int array; (* large half *)
  u1 : int; (* channel edge: u1 in sa, u2 in sb *)
  u2 : int;
  order_a : int array; (* sa by BFS distance to u1, ties in vertex order *)
  up_a : int array; (* up_a.(i): BFS parent of order_a.(i) inside sa *)
  order_b : int array;
  up_b : int array;
  guard_cap : int;
  children : node option array;
      (* the nodes of sa and sb, once met; halves of three or more
         vertices only *)
}

(* Subset keys: vertex bitsets, [bits_per_word] vertices per word. *)
let bits_per_word = 62

let rec words_equal (a : int array) b i =
  i < 0 || (a.(i) = b.(i) && words_equal a b (i - 1))

module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    Array.length a = Array.length b && words_equal a b (Array.length a - 1)

  let hash a =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193 land max_int
    done;
    !h
end)

type memo = {
  table : node Key_tbl.t;
  lock : Mutex.t;
  mutable owner : Graph.t option;
      (* the graph this memo was built against, checked connected once *)
}

let make_memo () =
  { table = Key_tbl.create 16; lock = Mutex.create (); owner = None }

let compile g edge_cost vertices =
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
      let half side inside root =
        let restrict v = inside.(v) in
        let dist = Paths.bfs_dist ~restrict g root in
        let parent = Paths.bfs_parents ~restrict g root in
        let order =
          Array.of_list (List.sort (fun a b -> Int.compare dist.(a) dist.(b)) side)
        in
        (order, Array.map (fun v -> parent.(v)) order)
      in
      let order_a, up_a = half sa in_sa u1 in
      let order_b, up_b = half sb in_sb u2 in
      Split
        {
          sa = Array.of_list sa;
          sb = Array.of_list sb;
          u1;
          u2;
          order_a;
          up_a;
          order_b;
          up_b;
          guard_cap = (8 * (List.length sa + List.length sb)) + 16;
          children = [| None; None |];
        })

(* Per-domain routing state, grown on demand and reused by every route on
   the domain: a route allocates only its result.  Levels are built in
   generation order (depth-first, small half first), each swap a
   {!Swap_word} tagged with its level in the uncompressed network; the
   result is that buffer as is ({!Swap_network.compressed} turns it into
   the compressed network). *)
type scratch = {
  mutable config : int array; (* config.(v) = token currently at v *)
  mutable active : bool array; (* not frozen by the leaf pre-pass *)
  mutable mark : int array; (* mark.(v) = stamp: v is in the level being built *)
  mutable stamp : int;
  mutable side : bool array; (* v in the large half of the split in progress *)
  mutable verts : int array; (* pre-pass freezes, then the root subset *)
  mutable key : int array;
  mutable swaps : int array; (* swap i is the {!Swap_word} swaps.(i) *)
  mutable count : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        config = [||];
        active = [||];
        mark = [||];
        stamp = 0;
        side = [||];
        verts = [||];
        key = [||];
        swaps = Array.make 64 0;
        count = 0;
      })

let prepare s n =
  if Array.length s.config < n then begin
    s.config <- Array.make n 0;
    s.active <- Array.make n true;
    s.mark <- Array.make n 0;
    s.side <- Array.make n false;
    s.verts <- Array.make n 0
  end;
  let words = (n + bits_per_word - 1) / bits_per_word in
  if Array.length s.key <> words then s.key <- Array.make words 0;
  for v = 0 to n - 1 do
    s.config.(v) <- v
  done;
  Array.fill s.active 0 n true;
  s.count <- 0

let grow a = Array.append a (Array.make (Array.length a) 0)

let push s u v level =
  if s.count = Array.length s.swaps then s.swaps <- grow s.swaps;
  s.swaps.(s.count) <- Swap_word.make u v ~level;
  s.count <- s.count + 1

let take s stamp u v level =
  s.mark.(u) <- stamp;
  s.mark.(v) <- stamp;
  push s u v level

(* A level's swaps are vertex-disjoint, so applying them in any order gives
   the same configuration; the level list of the network holds them in
   reverse discovery order, which [close_level] restores. *)
let close_level s start =
  let config = s.config and swaps = s.swaps in
  let i = ref start and j = ref (s.count - 1) in
  while !i < !j do
    let w = swaps.(!i) in
    swaps.(!i) <- swaps.(!j);
    swaps.(!j) <- w;
    incr i;
    decr j
  done;
  for k = start to s.count - 1 do
    let u = Swap_word.u swaps.(k) and v = Swap_word.v swaps.(k) in
    let t = config.(u) in
    config.(u) <- config.(v);
    config.(v) <- t
  done

let dest s perm v = perm.(s.config.(v))

let active_degree s g v =
  let neighbors = Graph.neighbors g v in
  let d = ref 0 in
  for i = 0 to Array.length neighbors - 1 do
    if s.active.(neighbors.(i)) then incr d
  done;
  !d

let last_active_neighbor s g v =
  let neighbors = Graph.neighbors g v in
  let u = ref (-1) in
  for i = 0 to Array.length neighbors - 1 do
    if s.active.(neighbors.(i)) then u := neighbors.(i)
  done;
  !u

(* Leaf-target value override pre-pass: freeze leaves that hold (or can
   directly receive) their final value, shrinking the routing instance.
   Freezes of one round apply after its scan.  Returns the number of
   pre-pass levels. *)
let prepass s g perm n =
  let levels = ref 0 in
  let active_count = ref n in
  let progress = ref true in
  while !progress && !active_count > 2 do
    progress := false;
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let start = s.count in
    let frozen = ref 0 in
    for v = 0 to n - 1 do
      if s.active.(v) && s.mark.(v) <> stamp && active_degree s g v = 1 then begin
        if dest s perm v = v then begin
          s.verts.(!frozen) <- v;
          incr frozen
        end
        else begin
          let u = last_active_neighbor s g v in
          if u >= 0 && s.mark.(u) <> stamp && dest s perm u = v then begin
            take s stamp u v !levels;
            s.verts.(!frozen) <- v;
            incr frozen
          end
        end
      end
    done;
    if s.count > start then begin
      close_level s start;
      incr levels
    end;
    for i = 0 to !frozen - 1 do
      s.active.(s.verts.(i)) <- false;
      decr active_count;
      progress := true
    done
  done;
  !levels

(* Within a half, misplaced tokens bubble toward the channel along BFS-tree
   parents, swapping only with correctly-sided tokens, closest-to-channel
   first.  [want] is the side a misplaced token of this half belongs to. *)
let sweep s perm order up want root stamp level =
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    if v <> root && s.mark.(v) <> stamp && s.side.(dest s perm v) = want then begin
      let p = up.(i) in
      if p >= 0 && s.mark.(p) <> stamp && s.side.(dest s perm p) <> want then
        take s stamp v p level
    end
  done

let rec misplaced_in_a s perm sa i =
  i >= 0 && (s.side.(dest s perm sa.(i)) || misplaced_in_a s perm sa (i - 1))

(* Move misplaced tokens of [sa] and [sb] to their own half through the
   channel edge; returns the number of levels, placed from [base] on.
   Every token in a routed subset is bound for a vertex of that subset,
   so [side] is only read at vertices this phase has just marked. *)
let phase s perm sp base =
  for i = 0 to Array.length sp.sa - 1 do
    s.side.(sp.sa.(i)) <- false
  done;
  for i = 0 to Array.length sp.sb - 1 do
    s.side.(sp.sb.(i)) <- true
  done;
  let iters = ref 0 in
  while misplaced_in_a s perm sp.sa (Array.length sp.sa - 1) do
    if !iters > sp.guard_cap then raise (Routing_failure "phase did not converge");
    let level = base + !iters in
    incr iters;
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let start = s.count in
    (* Channel swap first. *)
    if s.side.(dest s perm sp.u1) && not s.side.(dest s perm sp.u2) then
      take s stamp sp.u1 sp.u2 level;
    sweep s perm sp.order_a sp.up_a true sp.u1 stamp level;
    sweep s perm sp.order_b sp.up_b false sp.u2 stamp level;
    if s.count = start then raise (Routing_failure "phase produced an empty level");
    close_level s start
  done;
  !iters

(* The node of the subset [vertices.(0 .. len-1)] (ascending), compiled
   under the memo's lock on first sight. *)
let find_node s memo g edge_cost vertices len =
  let key = s.key in
  Array.fill key 0 (Array.length key) 0;
  for i = 0 to len - 1 do
    let v = vertices.(i) in
    let w = v / bits_per_word in
    key.(w) <- key.(w) lor (1 lsl (v mod bits_per_word))
  done;
  Mutex.lock memo.lock;
  match Key_tbl.find memo.table key with
  | node ->
    Mutex.unlock memo.lock;
    node
  | exception Not_found ->
    Mutex.unlock memo.lock;
    Mutex.protect memo.lock (fun () ->
        match Key_tbl.find_opt memo.table key with
        | Some node -> node
        | None ->
          let node =
            compile g edge_cost (Array.to_list (Array.sub vertices 0 len))
          in
          Key_tbl.add memo.table (Array.copy key) node;
          node)

let pair s perm a b level =
  if dest s perm a <> a then begin
    push s a b level;
    close_level s (s.count - 1)
  end

(* The halves are vertex-disjoint after the phase, so each recursion swaps
   only within its own half; both start at the level after the phase, the
   small half's swaps generated first. *)
let rec solve s memo g edge_cost perm node base =
  match node with
  | Unsplittable -> raise (Routing_failure "could not bisect a connected subgraph")
  | No_channel -> raise (Routing_failure "no channel edge between bisection halves")
  | Split sp ->
    let base = base + phase s perm sp base in
    solve_half s memo g edge_cost perm sp 0 sp.sa base;
    solve_half s memo g edge_cost perm sp 1 sp.sb base

and solve_half s memo g edge_cost perm sp side half base =
  match half with
  | [| a; b |] -> pair s perm a b base
  | [||] | [| _ |] -> ()
  | _ ->
    let child =
      match sp.children.(side) with
      | Some child -> child
      | None ->
        let child = find_node s memo g edge_cost half (Array.length half) in
        sp.children.(side) <- Some child;
        child
    in
    solve s memo g edge_cost perm child base

(* A memo is bound to its graph on first use, once the graph is known to be
   connected, so later routes skip the connectivity check.  Concurrent
   first routes may both check; the lock makes the binding itself
   atomic. *)
let bind memo g =
  match memo.owner with
  | Some owner when owner == g -> ()
  | _ ->
    if not (Paths.is_connected g) then
      invalid_arg "Bisect_router.route: adjacency graph must be connected";
    Mutex.protect memo.lock (fun () ->
        match memo.owner with
        | None -> memo.owner <- Some g
        | Some owner when owner == g -> ()
        | Some _ ->
          invalid_arg "Bisect_router.route: memo built for a different graph")

(* [Perm.is_valid] without its allocation, over the mark stamps. *)
let is_permutation s perm n =
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp in
  let ok = ref true in
  for v = 0 to n - 1 do
    let dst = perm.(v) in
    if dst < 0 || dst >= n || s.mark.(dst) = stamp then ok := false
    else s.mark.(dst) <- stamp
  done;
  !ok

let route_impl ?(leaf_override = true) ?edge_cost ?memo g ~perm =
  let n = Graph.n g in
  if Array.length perm <> n then
    invalid_arg "Bisect_router.route: permutation size mismatch";
  let s = Domain.DLS.get scratch_key in
  prepare s n;
  if not (is_permutation s perm n) then
    invalid_arg "Bisect_router.route: not a permutation";
  let memo = match memo with Some memo -> memo | None -> make_memo () in
  bind memo g;
  let base = if leaf_override then prepass s g perm n else 0 in
  let remaining = ref 0 in
  for v = 0 to n - 1 do
    if s.active.(v) then begin
      s.verts.(!remaining) <- v;
      incr remaining
    end
  done;
  (match !remaining with
  | 0 | 1 -> ()
  | 2 -> pair s perm s.verts.(0) s.verts.(1) base
  | len -> solve s memo g edge_cost perm (find_node s memo g edge_cost s.verts len) base);
  for v = 0 to n - 1 do
    assert (dest s perm v = v)
  done;
  Array.sub s.swaps 0 s.count

module Telemetry = Qcp_obs.Metrics

let m_routes = Telemetry.counter Telemetry.global "router.routes"

let route_sequence ?leaf_override ?edge_cost ?memo g ~perm =
  if Telemetry.enabled () then Telemetry.incr m_routes;
  if Qcp_obs.Trace.enabled () then
    Qcp_obs.Trace.with_span ~cat:"route" "router/bisect" (fun () ->
        route_impl ?leaf_override ?edge_cost ?memo g ~perm)
  else route_impl ?leaf_override ?edge_cost ?memo g ~perm

let route ?leaf_override ?edge_cost ?memo g ~perm =
  Swap_network.compressed (route_sequence ?leaf_override ?edge_cost ?memo g ~perm)
