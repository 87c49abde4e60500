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
  | Pending (* a half's node not met yet *)
  | Unsplittable
  | No_channel
  | Split of split

and split = {
  sa : int array; (* small half, ascending vertex ids *)
  sb : int array; (* large half *)
  u1 : int; (* channel edge: u1 in sa, u2 in sb *)
  u2 : int;
  order_a : int array;
      (* sa by BFS distance to u1, ties in vertex order: u1 first *)
  up_a : int array; (* up_a.(i): BFS parent of order_a.(i) inside sa *)
  order_b : int array;
  up_b : int array;
  guard_cap : int;
  children : node array;
      (* the nodes of sa and sb, [Pending] until met; halves of three or
         more vertices only *)
}

(* Subset keys: vertex bitsets, [bits_per_word] vertices per word, in an
   open-addressing table that routes read without the lock.  Entries are
   only ever added, under the lock: a reader sees each slot empty or
   complete, and one that misses looks again under the lock, so a race
   costs a locked probe, never a wrong node. *)
let bits_per_word = 62

let words_of n = (n + bits_per_word - 1) / bits_per_word

type entry = Empty | Entry of { key : int array; node : node }

type memo = {
  mutable slots : entry array; (* a power of two, at most half full *)
  mutable entries : int;
  lock : Mutex.t;
  mutable owner : Graph.t option;
      (* the graph this memo was built against, checked connected once *)
}

let make_memo () =
  {
    slots = Array.make 16 Empty;
    entries = 0;
    lock = Mutex.create ();
    owner = None;
  }

let hash key words =
  let h = ref 0x811c9dc5 in
  for i = 0 to words - 1 do
    h := (!h lxor key.(i)) * 0x01000193
  done;
  !h lxor (!h lsr 29)

let rec same_key (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && same_key a b (i - 1))

let rec probe slots key words i =
  match slots.(i) with
  | Empty -> Pending
  | Entry e ->
    if same_key e.key key (words - 1) then e.node
    else probe slots key words ((i + 1) land (Array.length slots - 1))

(* The node stored under the first [words] words of [key], or [Pending];
   allocates nothing. *)
let lookup slots key words =
  probe slots key words (hash key words land (Array.length slots - 1))

let insert slots key node =
  let mask = Array.length slots - 1 in
  let rec probe i =
    match slots.(i) with
    | Empty -> slots.(i) <- Entry { key; node }
    | Entry _ -> probe ((i + 1) land mask)
  in
  probe (hash key (Array.length key) land mask)

(* Adds under the lock; a full table is rehashed into a fresh array that
   replaces it whole. *)
let add memo key node =
  if 2 * (memo.entries + 1) > Array.length memo.slots then begin
    let slots = Array.make (2 * Array.length memo.slots) Empty in
    Array.iter
      (function Empty -> () | Entry e -> insert slots e.key e.node)
      memo.slots;
    insert slots key node;
    memo.slots <- slots
  end
  else insert memo.slots key node;
  memo.entries <- memo.entries + 1

(* [x] among [a.(lo .. hi - 1)], ascending. *)
let rec mem_sorted (a : int array) x lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  if a.(mid) = x then true
  else if a.(mid) < x then mem_sorted a x (mid + 1) hi
  else mem_sorted a x lo mid

let compile g edge_cost vertices =
  match Separator.bisect g vertices with
  | None -> Unsplittable
  | Some (sa, sb) ->
    (* The first crossing edge, sa ascending and each row ascending; with
       an edge-cost oracle (the paper notes the algorithm extends to
       weighted SWAPs) the first of the cheapest. *)
    let u1 = ref (-1) and u2 = ref (-1) and best = ref 0.0 in
    (try
       Array.iter
         (fun v ->
           Array.iter
             (fun u ->
               if mem_sorted sb u 0 (Array.length sb) then
                 match edge_cost with
                 | None ->
                   u1 := v;
                   u2 := u;
                   raise Exit
                 | Some cost ->
                   let c = cost v u in
                   if !u1 < 0 || c < !best then begin
                     u1 := v;
                     u2 := u;
                     best := c
                   end)
             (Graph.neighbors g v))
         sa
     with Exit -> ());
    if !u1 < 0 then No_channel
    else begin
      let order_a, up_a = Separator.tree_order g sa ~root:!u1 in
      let order_b, up_b = Separator.tree_order g sb ~root:!u2 in
      Split
        {
          sa;
          sb;
          u1 = !u1;
          u2 = !u2;
          order_a;
          up_a;
          order_b;
          up_b;
          guard_cap = (8 * Array.length vertices) + 16;
          children = [| Pending; Pending |];
        }
    end

(* Per-domain routing state, grown on demand and reused by every route on
   the domain: a route allocates only its result.  Levels are built in
   generation order (depth-first, small half first), each swap a
   {!Swap_word} tagged with its level in the uncompressed network; the
   result is that buffer as is ({!Swap_network.compressed} turns it into
   the compressed network). *)
type scratch = {
  mutable dst : int array; (* dst.(v) = destination of the token at v *)
  mutable live : int array;
      (* live.(v) = v's neighbours not frozen by the leaf pre-pass; below
         zero once v itself is frozen *)
  mutable mark : int array; (* mark.(v) = stamp: v is in the level being built *)
  mutable stamp : int;
  mutable side : int array;
      (* side.(v) = the phase's stamp: v is in the small half of the split
         in progress; a vertex of the split without it is in the large one *)
  mutable verts : int array; (* pre-pass freezes, then a subset to compile *)
  mutable frozen : int; (* pre-pass freezes *)
  mutable key : int array; (* the root subset's bitset; grows only *)
  mutable swaps : int array; (* swap i is the {!Swap_word} swaps.(i) *)
  mutable count : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        dst = [||];
        live = [||];
        mark = [||];
        stamp = 0;
        side = [||];
        verts = [||];
        frozen = 0;
        key = [||];
        swaps = Array.make 64 0;
        count = 0;
      })

let prepare s n =
  if Array.length s.dst < n then begin
    s.dst <- Array.make n 0;
    s.live <- Array.make n 0;
    s.mark <- Array.make n 0;
    s.side <- Array.make n 0;
    s.verts <- Array.make n 0
  end;
  if Array.length s.key < words_of n then s.key <- Array.make (words_of n) 0;
  s.count <- 0

let grow a = Array.append a (Array.make (Array.length a) 0)

let push s u v level =
  if s.count = Array.length s.swaps then s.swaps <- grow s.swaps;
  s.swaps.(s.count) <- Swap_word.make u v ~level;
  s.count <- s.count + 1

(* A level's swaps are vertex-disjoint and a marked vertex is not read
   again within its level, so each swap applies the moment it is taken. *)
let take s stamp u v level =
  let dst = s.dst in
  s.mark.(u) <- stamp;
  s.mark.(v) <- stamp;
  let t = dst.(u) in
  dst.(u) <- dst.(v);
  dst.(v) <- t;
  push s u v level

(* The level list of the network holds a level's swaps in reverse
   discovery order, which [close_level] restores. *)
let close_level s start =
  let swaps = s.swaps in
  let i = ref start and j = ref (s.count - 1) in
  while !i < !j do
    let w = swaps.(!i) in
    swaps.(!i) <- swaps.(!j);
    swaps.(!j) <- w;
    incr i;
    decr j
  done

(* The neighbour of [v] not frozen, when it has exactly one. *)
let live_neighbor live row =
  let u = ref (-1) in
  for i = 0 to Array.length row - 1 do
    if live.(row.(i)) >= 0 then u := row.(i)
  done;
  !u

(* Leaf-target value override pre-pass: freeze leaves that hold (or can
   directly receive) their final value, shrinking the routing instance.
   Freezes of one round apply after its scan.  Leaves the frozen vertices
   in [s.verts] and their number in [s.frozen]; returns the number of
   pre-pass levels. *)
let prepass s g n =
  let live = s.live and dst = s.dst and mark = s.mark and frozen = s.verts in
  Array.blit (Graph.degrees g) 0 live 0 n;
  let levels = ref 0 and count = ref 0 in
  let progress = ref true in
  while !progress && n - !count > 2 do
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let start = s.count and first = !count in
    for v = 0 to n - 1 do
      if live.(v) = 1 && mark.(v) <> stamp then begin
        if dst.(v) = v then begin
          frozen.(!count) <- v;
          incr count
        end
        else begin
          let u = live_neighbor live (Graph.neighbors g v) in
          if u >= 0 && mark.(u) <> stamp && dst.(u) = v then begin
            take s stamp u v !levels;
            frozen.(!count) <- v;
            incr count
          end
        end
      end
    done;
    if s.count > start then begin
      close_level s start;
      incr levels
    end;
    for i = first to !count - 1 do
      let v = frozen.(i) in
      live.(v) <- -1;
      let row = Graph.neighbors g v in
      for j = 0 to Array.length row - 1 do
        live.(row.(j)) <- live.(row.(j)) - 1
      done
    done;
    progress := !count > first
  done;
  s.frozen <- !count;
  !levels

(* Within a half, misplaced tokens bubble toward the channel along BFS-tree
   parents, swapping only with correctly-sided tokens, closest-to-channel
   first.  A misplaced token of this half is bound for the small half when
   [to_a] holds ([side] stamped [phase]), else for the large one;
   [order.(0)] is the channel endpoint, which only the channel swap moves,
   and [left] counts the misplaced tokens at the other vertices.  A parent
   comes before its children in [order], so a vertex is unmarked when the
   sweep reaches it and a token a swap moves is not met again: the sweep
   stops at the last misplaced token. *)
let sweep s order up ~phase ~to_a stamp level left =
  let dst = s.dst and mark = s.mark and side = s.side in
  let left = ref left and i = ref 1 in
  while !left > 0 do
    let v = order.(!i) in
    if side.(dst.(v)) = phase = to_a then begin
      decr left;
      let p = up.(!i) in
      if mark.(p) <> stamp && side.(dst.(p)) = phase <> to_a then
        take s stamp v p level
    end;
    incr i
  done

(* Move misplaced tokens of [sa] and [sb] to their own half through the
   channel edge; returns the number of levels, placed from [base] on.
   Every token in a routed subset is bound for a vertex of that subset,
   so [side] is only read at vertices of this split (stamping the small
   half is enough to tell the two apart), and as many tokens
   of [sb] are bound for [sa] as tokens of [sa] for [sb].  Only the
   channel swap moves a token across, so that count falls by one with
   each and by nothing else. *)
let phase s sp base =
  let side = s.side and dst = s.dst in
  let sa = sp.sa and u1 = sp.u1 and u2 = sp.u2 in
  s.stamp <- s.stamp + 1;
  let phase = s.stamp in
  for i = 0 to Array.length sa - 1 do
    side.(sa.(i)) <- phase
  done;
  let misplaced = ref 0 in
  for i = 0 to Array.length sa - 1 do
    if side.(dst.(sa.(i))) <> phase then incr misplaced
  done;
  let iters = ref 0 in
  while !misplaced > 0 do
    if !iters > sp.guard_cap then raise (Routing_failure "phase did not converge");
    let level = base + !iters in
    incr iters;
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp in
    let start = s.count in
    (* Channel swap first. *)
    if side.(dst.(u1)) <> phase && side.(dst.(u2)) = phase then begin
      take s stamp u1 u2 level;
      decr misplaced
    end;
    sweep s sp.order_a sp.up_a ~phase ~to_a:false stamp level
      (if side.(dst.(u1)) <> phase then !misplaced - 1 else !misplaced);
    sweep s sp.order_b sp.up_b ~phase ~to_a:true stamp level
      (if side.(dst.(u2)) = phase then !misplaced - 1 else !misplaced);
    if s.count = start then raise (Routing_failure "phase produced an empty level");
    close_level s start
  done;
  !iters

(* The node of the subset whose bitset is the first [words] words of
   [key] and whose vertices (ascending) are [vertices], compiled under the
   memo's lock unless another route got there first. *)
let compile_node memo g edge_cost key words vertices =
  Mutex.protect memo.lock (fun () ->
      match lookup memo.slots key words with
      | Pending ->
        let node = compile g edge_cost vertices in
        add memo (Array.sub key 0 words) node;
        node
      | node -> node)

(* The node of a half, found by its bitset on first sight. *)
let half_node s memo g edge_cost half =
  let key = s.key and words = words_of (Graph.n g) in
  Array.fill key 0 words 0;
  for i = 0 to Array.length half - 1 do
    let v = half.(i) in
    let w = v / bits_per_word in
    key.(w) <- key.(w) lor (1 lsl (v mod bits_per_word))
  done;
  match lookup memo.slots key words with
  | Pending -> compile_node memo g edge_cost key words half
  | node -> node

let pair s a b level =
  if s.dst.(a) <> a then begin
    push s a b level;
    let t = s.dst.(a) in
    s.dst.(a) <- s.dst.(b);
    s.dst.(b) <- t
  end

(* The halves are vertex-disjoint after the phase, so each recursion swaps
   only within its own half; both start at the level after the phase, the
   small half's swaps generated first. *)
let rec solve s memo g edge_cost node base =
  match node with
  | Pending -> assert false
  | Unsplittable -> raise (Routing_failure "could not bisect a connected subgraph")
  | No_channel -> raise (Routing_failure "no channel edge between bisection halves")
  | Split sp ->
    let base = base + phase s sp base in
    solve_half s memo g edge_cost sp 0 sp.sa base;
    solve_half s memo g edge_cost sp 1 sp.sb base

and solve_half s memo g edge_cost sp side half base =
  match half with
  | [| a; b |] -> pair s a b base
  | [||] | [| _ |] -> ()
  | _ ->
    if sp.children.(side) == Pending then
      sp.children.(side) <- half_node s memo g edge_cost half;
    solve s memo g edge_cost sp.children.(side) base

(* The vertices not frozen, ascending, into [s.verts]; returns how many. *)
let live_vertices s n =
  let len = ref 0 in
  for v = 0 to n - 1 do
    if s.live.(v) >= 0 then begin
      s.verts.(!len) <- v;
      incr len
    end
  done;
  !len

(* The root: the bitset of every vertex with the frozen ones cleared. *)
let root_node s memo g edge_cost n frozen =
  let key = s.key and words = words_of n in
  for w = 0 to words - 1 do
    key.(w) <- (1 lsl min bits_per_word (n - (w * bits_per_word))) - 1
  done;
  for i = 0 to frozen - 1 do
    let v = s.verts.(i) in
    let w = v / bits_per_word in
    key.(w) <- key.(w) land lnot (1 lsl (v mod bits_per_word))
  done;
  match lookup memo.slots key words with
  | Pending ->
    compile_node memo g edge_cost key words (Array.sub s.verts 0 (live_vertices s n))
  | node -> node

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

(* Loads [dst] from [perm] and checks it is a permutation ([Perm.is_valid]
   without its allocation, over the mark stamps). *)
let load s perm n =
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp and mark = s.mark and dst = s.dst in
  let ok = ref true in
  for v = 0 to n - 1 do
    let d = perm.(v) in
    if d < 0 || d >= n || mark.(d) = stamp then ok := false
    else begin
      mark.(d) <- stamp;
      dst.(v) <- d
    end
  done;
  !ok

let route_impl ?(leaf_override = true) ?edge_cost ?memo g ~perm =
  let n = Graph.n g in
  if Array.length perm <> n then
    invalid_arg "Bisect_router.route: permutation size mismatch";
  let s = Domain.DLS.get scratch_key in
  prepare s n;
  if not (load s perm n) then invalid_arg "Bisect_router.route: not a permutation";
  let memo = match memo with Some memo -> memo | None -> make_memo () in
  bind memo g;
  let base =
    if leaf_override then prepass s g n
    else begin
      Array.fill s.live 0 n 0;
      s.frozen <- 0;
      0
    end
  in
  (match n - s.frozen with
  | 0 | 1 -> ()
  | 2 ->
    ignore (live_vertices s n : int);
    pair s s.verts.(0) s.verts.(1) base
  | _ -> solve s memo g edge_cost (root_node s memo g edge_cost n s.frozen) base);
  for v = 0 to n - 1 do
    assert (s.dst.(v) = v)
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
