(* The array bisection router, the array bisection, the packed
   SWAP-sequence timing and the scratch-built connecting permutations
   against the implementations they replaced (the list router and list
   bisection, and the array router before its flat kernel), kept verbatim
   below as references. *)

module Graph = Qcp_graph.Graph
module Gen = Qcp_graph.Generators
module Perm = Qcp_route.Perm
module Swap_network = Qcp_route.Swap_network
module Bisect_router = Qcp_route.Bisect_router
module Timing = Qcp_circuit.Timing
module Environment = Qcp_env.Environment
module Rng = Qcp_util.Rng

(* ------------------------------------------------------------------ *)
(* Reference bisection: the list [Separator.bisect], verbatim.         *)
(* ------------------------------------------------------------------ *)

module List_separator = struct
  module Graph = Qcp_graph.Graph
  module Paths = Qcp_graph.Paths

  (* Subtree sizes by an explicit-stack post-order over the children lists —
     children are accumulated into their parent before the parent is popped,
     so no per-root sort by BFS depth is needed. *)
  let subtree_sizes parent =
    let n = Array.length parent in
    let size = Array.make n 1 in
    let children = Array.make n [] in
    let roots = ref [] in
    Array.iteri
      (fun v p ->
        if p >= 0 && p <> v then children.(p) <- v :: children.(p)
        else roots := v :: !roots)
      parent;
    let stack = Stack.create () in
    List.iter (fun r -> Stack.push (r, false) stack) !roots;
    while not (Stack.is_empty stack) do
      let v, expanded = Stack.pop stack in
      if expanded then begin
        let p = parent.(v) in
        if p >= 0 && p <> v then size.(p) <- size.(p) + size.(v)
      end
      else begin
        Stack.push (v, true) stack;
        List.iter (fun c -> Stack.push (c, false) stack) children.(v)
      end
    done;
    size

  let candidate_roots g =
    let size = Graph.n g in
    if size <= 64 then Qcp_util.Listx.range size
    else begin
      let step = size / 16 in
      List.init 16 (fun i -> i * step)
    end

  let bisect g =
    let size = Graph.n g in
    if size < 2 || not (Paths.is_connected g) then None
    else begin
      let best = ref None in
      let consider root =
        let parent = Paths.bfs_parents g root in
        let sizes = subtree_sizes parent in
        for v = 0 to size - 1 do
          if v <> root && parent.(v) >= 0 then begin
            let small = min sizes.(v) (size - sizes.(v)) in
            let better =
              match !best with
              | None -> true
              | Some (best_small, _, _) -> small > best_small
            in
            if better then best := Some (small, v, parent)
          end
        done
      in
      List.iter consider (candidate_roots g);
      match !best with
      | None -> None
      | Some (_, cut_vertex, parent) ->
        (* Subtree of [cut_vertex] in the chosen BFS tree. *)
        let children = Array.make size [] in
        Array.iteri
          (fun v p -> if p >= 0 && p <> v then children.(p) <- v :: children.(p))
          parent;
        let in_subtree = Array.make size false in
        let rec mark v =
          in_subtree.(v) <- true;
          List.iter mark children.(v)
        in
        mark cut_vertex;
        let side_a = List.filter (fun v -> in_subtree.(v)) (Qcp_util.Listx.range size) in
        let side_b = List.filter (fun v -> not in_subtree.(v)) (Qcp_util.Listx.range size) in
        if List.length side_a <= List.length side_b then Some (side_a, side_b)
        else Some (side_b, side_a)
    end
end

(* ------------------------------------------------------------------ *)
(* Reference array router: the split-tree router before the flat        *)
(* kernel and the array compile, verbatim ([route_impl] is its          *)
(* [route_sequence] without the telemetry wrapper).                     *)
(* ------------------------------------------------------------------ *)

module Flat_reference = struct
  module Graph = Qcp_graph.Graph
  module Paths = Qcp_graph.Paths
  module Separator = List_separator
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
end

(* ------------------------------------------------------------------ *)
(* Reference router: the list implementation, verbatim.                *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  module Graph = Qcp_graph.Graph
  module Paths = Qcp_graph.Paths
  module Separator = List_separator
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

  let route_impl ?(leaf_override = true) ?edge_cost ?memo g ~perm =
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
             swaps only within its own half.  Levels are pure values and
             [merge] interleaves them deterministically. *)
          let la = solve ~used info.si_sa in
          let lb = solve ~used info.si_sb in
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
   setting reused across all calls.  The
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
          let expected =
            outcome (fun () ->
                Reference.route_impl ~leaf_override ?edge_cost ~memo:ref_memo g
                  ~perm)
          in
          let kept = Result.map Swap_network.compressed got in
          if expected <> kept || expected <> fresh then
            Alcotest.failf "%s (leaf_override %b, cost %b):@.expected %s@.got %s"
              label leaf_override (edge_cost <> None) (pp_outcome expected)
              (pp_outcome kept);
          incr checked)
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
(* Raw sequences against the array reference                          *)
(* ------------------------------------------------------------------ *)

let seq_outcome f =
  match f () with
  | (seq : Swap_network.sequence) -> Ok seq
  | exception Bisect_router.Routing_failure m -> Error ("routing failure: " ^ m)
  | exception Flat_reference.Routing_failure m -> Error ("routing failure: " ^ m)
  | exception Invalid_argument m -> Error ("invalid_arg: " ^ m)

let pp_seq_outcome = function
  | Ok seq ->
    String.concat " "
      (Array.to_list
         (Array.map
            (fun w ->
              Printf.sprintf "%d-%d@%d" (Qcp_circuit.Swap_word.u w)
                (Qcp_circuit.Swap_word.v w) (Qcp_circuit.Swap_word.level w))
            seq))
  | Error m -> m

(* [route_sequence] returns word for word what the array router it
   replaced returned: every setting (both leaf-override values, with and
   without edge costs) routes all [perms] through one memo per side, and
   each route is repeated without a memo. *)
let compare_sequences ~label ?edge_cost g perms =
  let checked = ref 0 in
  List.iter
    (fun (leaf_override, edge_cost) ->
      let memo = Bisect_router.make_memo () in
      let ref_memo = Flat_reference.make_memo () in
      List.iter
        (fun perm ->
          let expected =
            seq_outcome (fun () ->
                Flat_reference.route_impl ~leaf_override ?edge_cost ~memo:ref_memo g
                  ~perm)
          in
          List.iter
            (fun got ->
              if got <> expected then
                Alcotest.failf "%s (leaf_override %b, cost %b):@.expected %s@.got %s"
                  label leaf_override (edge_cost <> None) (pp_seq_outcome expected)
                  (pp_seq_outcome got);
              incr checked)
            [
              seq_outcome (fun () ->
                  Bisect_router.route_sequence ~leaf_override ?edge_cost ~memo g ~perm);
              seq_outcome (fun () ->
                  Bisect_router.route_sequence ~leaf_override ?edge_cost g ~perm);
            ])
        perms)
    [ (true, None); (false, None); (true, edge_cost); (false, edge_cost) ];
  !checked

let test_sequence_matches_array_reference () =
  let rng = Rng.create 35 in
  let checked = ref 0 in
  let run ~label ?edge_cost g count =
    checked :=
      !checked
      + compare_sequences ~label ?edge_cost g (random_perms rng (Graph.n g) count)
  in
  List.iter
    (fun env ->
      List.iter
        (fun threshold ->
          match Environment.connected_adjacency env ~threshold with
          | Some g ->
            run
              ~label:(Printf.sprintf "%s@%g" (Environment.name env) threshold)
              ~edge_cost:(Environment.coupling_delay env) g 40
          | None -> ())
        [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ])
    Qcp_env.Molecules.all;
  List.iter
    (fun n ->
      run ~label:(Printf.sprintf "chain %d" n) ~edge_cost:synthetic_cost
        (Gen.path_graph n) (if n > 32 then 6 else 16))
    [ 8; 16; 32; 64; 128 ];
  run ~label:"grid 6x6" ~edge_cost:synthetic_cost (Gen.grid 6 6) 12;
  run ~label:"grid 16x16" ~edge_cost:synthetic_cost (Gen.grid 16 16) 3;
  run ~label:"heavy-hex" ~edge_cost:synthetic_cost (Gen.heavy_hex ~rows:2 ~cols:3) 12;
  for i = 0 to 11 do
    let n = 2 + Rng.int rng 40 in
    run ~label:(Printf.sprintf "tree %d" i) ~edge_cost:synthetic_cost
      (Gen.random_tree rng n) 10
  done;
  (* Argument failures, in the reference's order of checks. *)
  List.iter
    (fun (label, g, perm) ->
      let expected = seq_outcome (fun () -> Flat_reference.route_impl g ~perm) in
      let got = seq_outcome (fun () -> Bisect_router.route_sequence g ~perm) in
      Alcotest.(check bool) (label ^ " fails") true (Result.is_error expected);
      Alcotest.(check string) label (pp_seq_outcome expected) (pp_seq_outcome got))
    [
      ("size mismatch", Gen.grid 3 3, Perm.identity 4);
      ("duplicate entry", Gen.grid 3 3, [| 0; 1; 2; 3; 4; 5; 6; 7; 7 |]);
      ("out of range", Gen.grid 3 3, [| 0; 1; 2; 3; 4; 5; 6; 7; 9 |]);
      ("negative", Gen.grid 3 3, [| 0; 1; 2; 3; 4; 5; 6; 7; -1 |]);
      ("disconnected", Graph.of_edges 4 [ (0, 1); (2, 3) ], [| 1; 0; 3; 2 |]);
    ];
  Alcotest.(check bool) "sequences compared" true (!checked > 5000)

(* ------------------------------------------------------------------ *)
(* Array bisection                                                     *)
(* ------------------------------------------------------------------ *)

(* A connected vertex subset grown from a random vertex, ascending. *)
let connected_subset rng g size =
  let n = Graph.n g in
  let inside = Array.make n false in
  let start = Rng.int rng n in
  inside.(start) <- true;
  let members = ref [ start ] and count = ref 1 in
  let stuck = ref false in
  while !count < size && not !stuck do
    let frontier =
      List.concat_map
        (fun v ->
          List.filter (fun u -> not inside.(u)) (Array.to_list (Graph.neighbors g v)))
        !members
    in
    match frontier with
    | [] -> stuck := true
    | _ ->
      let u = List.nth frontier (Rng.int rng (List.length frontier)) in
      inside.(u) <- true;
      members := u :: !members;
      incr count
  done;
  List.sort compare !members

(* [Separator.bisect] returns the halves, in order, that the list
   bisection returns on the induced subgraph, mapped back: on whole
   graphs, on connected subsets and on disconnected ones (both refuse). *)
let test_array_bisect_matches_list () =
  let rng = Rng.create 36 in
  let compared = ref 0 in
  let check ~label g subset =
    let sub, back = Graph.induced g subset in
    let expected =
      Option.map
        (fun (a, b) ->
          let lift side = Array.of_list (List.map (fun i -> back.(i)) side) in
          (lift a, lift b))
        (List_separator.bisect sub)
    in
    let got = Qcp_graph.Separator.bisect g (Array.of_list subset) in
    if got <> expected then Alcotest.failf "%s: bisections differ" label;
    incr compared
  in
  let graph ~label g =
    let n = Graph.n g in
    check ~label g (List.init n Fun.id);
    for _ = 1 to 6 do
      check ~label g (connected_subset rng g (2 + Rng.int rng (max 1 (n - 1))))
    done;
    (* Two far-apart vertices: usually disconnected. *)
    if n > 3 then check ~label g [ 0; n - 1 ]
  in
  List.iter
    (fun env ->
      List.iter
        (fun threshold ->
          match Environment.connected_adjacency env ~threshold with
          | Some g ->
            graph ~label:(Printf.sprintf "%s@%g" (Environment.name env) threshold) g
          | None -> ())
        [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ])
    Qcp_env.Molecules.all;
  List.iter (fun n -> graph ~label:(Printf.sprintf "chain %d" n) (Gen.path_graph n))
    [ 2; 3; 8; 65; 128 ];
  List.iter
    (fun (r, c) -> graph ~label:(Printf.sprintf "grid %dx%d" r c) (Gen.grid r c))
    [ (3, 3); (6, 6); (9, 9); (16, 16) ];
  for i = 0 to 39 do
    let n = 2 + Rng.int rng 90 in
    graph ~label:(Printf.sprintf "random %d" i)
      (Gen.random_connected rng ~n ~extra_edges:(Rng.int rng (2 * n)))
  done;
  Alcotest.(check bool) "bisections compared" true (!compared > 500)

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

(* A warm-memo route allocates its result and nothing else: the swap
   sequence, one word per swap plus a header.  Histidine at threshold 1000
   has no leaf, so its roots are whole graphs; a 12-vertex chain's leaves
   freeze under sparse permutations, so its roots are keyed subsets.  (The
   list router plus its SWAP circuit took 1,794 words a route; the flat
   schedule before the sequence, 74.) *)
let test_route_miss_allocation () =
  let check label g =
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
    Alcotest.(check int) (label ^ ": a warm route allocates only its sequence")
      expected (int_of_float words)
  in
  let env = Qcp_env.Molecules.histidine in
  check "histidine@1000"
    (Option.get (Environment.connected_adjacency env ~threshold:1000.0));
  check "chain 12" (Gen.path_graph 12)

let suite =
  [
    Alcotest.test_case "router = list reference" `Quick test_router_matches_reference;
    Alcotest.test_case "router rejects like reference" `Quick
      test_router_rejects_like_reference;
    Alcotest.test_case "sequence = array reference" `Quick
      test_sequence_matches_array_reference;
    Alcotest.test_case "array bisect = list bisect" `Quick
      test_array_bisect_matches_list;
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
