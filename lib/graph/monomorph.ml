(* Vertex ordering: process pattern components one after the other, within a
   component in BFS order from a maximum-degree seed, so each vertex after a
   component seed has at least one previously-mapped neighbor.  That keeps the
   candidate set for non-seed vertices restricted to neighbors of an already
   mapped image, which is what makes the search fast on sparse patterns.

   The search draws those candidates from the sorted target neighbor row of
   the first earlier neighbor's image and keeps the ones adjacent to every
   other earlier neighbor's image -- ascending, exactly the seed
   enumerator's order -- so the result list (mappings and their order) is
   unchanged; only dead branches are cut earlier, by degree-sequence,
   neighborhood-degree and free-region packing refutations. *)

module Telemetry = Qcp_obs.Metrics

let m_nodes = Telemetry.counter Telemetry.global "monomorph.nodes"

let m_ref_degree = Telemetry.counter Telemetry.global "monomorph.refuted.degree"

let m_ref_signature =
  Telemetry.counter Telemetry.global "monomorph.refuted.signature"

let m_ref_degseq =
  Telemetry.counter Telemetry.global "monomorph.refuted.degree_sequence"

let m_ref_packing =
  Telemetry.counter Telemetry.global "monomorph.refuted.packing"

let m_enumerations = Telemetry.counter Telemetry.global "monomorph.enumerations"

(* Insertion sort of [arr.(lo .. hi-1)] by [cmp]; the sorted ranges are tiny
   (bounded by a vertex degree), so this beats allocating slices for
   [Array.sort]. *)
let insertion_sort cmp arr lo hi =
  for i = lo + 1 to hi - 1 do
    let x = arr.(i) in
    let j = ref (i - 1) in
    while !j >= lo && cmp arr.(!j) x > 0 do
      arr.(!j + 1) <- arr.(!j);
      decr j
    done;
    arr.(!j + 1) <- x
  done

let ordering pattern =
  let np = Graph.n pattern in
  let deg = Graph.degrees pattern in
  let order = Array.make (max 1 np) 0 in
  let len = ref 0 in
  let seen = Array.make np false in
  let cmp a b =
    match Int.compare deg.(b) deg.(a) with 0 -> Int.compare a b | c -> c
  in
  let nseeds = ref 0 in
  let seeds = Array.make (max 1 np) 0 in
  for v = 0 to np - 1 do
    if deg.(v) > 0 then begin
      seeds.(!nseeds) <- v;
      incr nseeds
    end
  done;
  insertion_sort cmp seeds 0 !nseeds;
  (* [order] itself is the BFS queue: [head] consumes what the loop below
     appends, and the emission order is exactly the visit order. *)
  let head = ref 0 in
  for s = 0 to !nseeds - 1 do
    let seed = seeds.(s) in
    if not seen.(seed) then begin
      seen.(seed) <- true;
      order.(!len) <- seed;
      incr len;
      while !head < !len do
        let u = order.(!head) in
        incr head;
        let first = !len in
        Array.iter
          (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              order.(!len) <- v;
              incr len
            end)
          (Graph.neighbors pattern u);
        insertion_sort cmp order first !len
      done
    end
  done;
  Array.sub order 0 !len

(* Sorted-degree-sequence refutation via suffix counts: for every degree
   bound d, the number of active pattern vertices of degree >= d must not
   exceed the number of target vertices of degree >= d (those pattern
   vertices occupy that many distinct target vertices).  Equivalent to
   pointwise domination of the descending degree sequences; subsumes the
   max-degree test. *)
let degree_sequence_ok pattern target =
  let sp = Graph.degree_suffix pattern and st = Graph.degree_suffix target in
  let maxd_p = Array.length sp - 2 in
  maxd_p <= Array.length st - 2
  &&
  let ok = ref true in
  for d = 1 to maxd_p do
    if sp.(d) > st.(d) then ok := false
  done;
  !ok

(* Everything a search reads and never writes, built once per enumeration.
   A step without earlier-ordered neighbors is a component seed; the
   components are numbered in order of their seeds. *)
type engine = {
  order : int array;
  np : int;
  nt : int;
  target : Graph.t;
  deg_p : int array;
  deg_t : int array;
  max_deg_t : int;
  sig_p : int array array;
      (* neighbor-degree signatures (sorted descending): if f(v) = c then
         v's signature must be dominated by a prefix of c's, so candidates
         failing the test head only dead branches -- pruning them cannot
         drop or reorder results *)
  sig_t : int array array;
  back : int array;
  back_at : int array;
      (* back.(back_at.(step) .. back_at.(step + 1) - 1): the
         earlier-ordered pattern neighbors of order.(step), ascending;
         empty exactly at component seeds *)
  seed_comp : int array; (* component number of a seed step, else -1 *)
  comp_size : int array;
  by_size : int array; (* component numbers, largest first *)
  branches : int array array;
      (* at a seed step, the sizes of the pieces its component falls into
         once the seed is removed, largest first *)
}

let make_engine ~pattern ~target ~order =
  let np = Graph.n pattern and len = Array.length order in
  let pos = Array.make np (-1) in
  for step = 0 to len - 1 do
    pos.(order.(step)) <- step
  done;
  (* Each edge is an earlier neighbor of exactly one of its ends. *)
  let back = Array.make (max 1 (Graph.edge_count pattern)) 0 in
  let back_at = Array.make (len + 1) 0 and seed_comp = Array.make len (-1) in
  let nback = ref 0 and ncomp = ref 0 in
  for step = 0 to len - 1 do
    back_at.(step) <- !nback;
    let row = Graph.neighbors pattern order.(step) in
    for i = 0 to Array.length row - 1 do
      if pos.(row.(i)) < step then begin
        back.(!nback) <- row.(i);
        incr nback
      end
    done;
    (* Components are BFS-contiguous in [order]: a seed opens one. *)
    if !nback = back_at.(step) then begin
      seed_comp.(step) <- !ncomp;
      incr ncomp
    end
  done;
  back_at.(len) <- !nback;
  let comp_size = Array.make !ncomp 0 and current = ref 0 in
  for step = 0 to len - 1 do
    if seed_comp.(step) >= 0 then current := seed_comp.(step);
    comp_size.(!current) <- comp_size.(!current) + 1
  done;
  let by_size = Array.init !ncomp Fun.id in
  insertion_sort
    (fun a b ->
      match Int.compare comp_size.(b) comp_size.(a) with
      | 0 -> Int.compare a b
      | c -> c)
    by_size 0 !ncomp;
  (* A seed's branches: pattern BFS from each unvisited neighbor, never
     through the seed.  Components are disjoint, so one [seen] serves all;
     [pos] is reused as it, [-1] marking a visited vertex. *)
  let queue = Array.make (max 1 np) 0 in
  let branches = Array.make len [||] in
  for step = 0 to len - 1 do
    if seed_comp.(step) >= 0 then begin
      let v = order.(step) in
      pos.(v) <- -1;
      let row = Graph.neighbors pattern v in
      let sizes = Array.make (Array.length row) 0 and k = ref 0 in
      for i = 0 to Array.length row - 1 do
        let w = row.(i) in
        if pos.(w) >= 0 then begin
          pos.(w) <- -1;
          queue.(0) <- w;
          let head = ref 0 and tail = ref 1 in
          while !head < !tail do
            let r = Graph.neighbors pattern queue.(!head) in
            incr head;
            for j = 0 to Array.length r - 1 do
              if pos.(r.(j)) >= 0 then begin
                pos.(r.(j)) <- -1;
                queue.(!tail) <- r.(j);
                incr tail
              end
            done
          done;
          sizes.(!k) <- !tail;
          incr k
        end
      done;
      insertion_sort (fun a b -> Int.compare b a) sizes 0 !k;
      branches.(step) <- (if !k = Array.length row then sizes else Array.sub sizes 0 !k)
    end
  done;
  {
    order;
    np;
    nt = Graph.n target;
    target;
    deg_p = Graph.degrees pattern;
    deg_t = Graph.degrees target;
    max_deg_t = Array.length (Graph.degree_suffix target) - 2;
    sig_p = Graph.neighbor_degrees pattern;
    sig_t = Graph.neighbor_degrees target;
    back;
    back_at;
    seed_comp;
    comp_size;
    by_size;
    branches;
  }

(* Same predicate as before, restructured so each refutation can be
   attributed to the rule that fired; the boolean result is unchanged. *)
let compatible e v c =
  if e.deg_t.(c) < e.deg_p.(v) then begin
    if Telemetry.enabled () then Telemetry.incr m_ref_degree;
    false
  end
  else begin
    let ps = e.sig_p.(v) and ts = e.sig_t.(c) in
    let ok = ref true in
    for i = 0 to Array.length ps - 1 do
      if ps.(i) > ts.(i) then ok := false
    done;
    if (not !ok) && Telemetry.enabled () then Telemetry.incr m_ref_signature;
    !ok
  end

(* Per-search mutable state; one per domain when fanning out.  [nodes]
   counts the nodes below the first vertex against [budget].  [mark],
   [queue], [hist] and [pieces] are the packing refutation's scratch: a
   check fills and reads them before the search recurses, so a deeper
   step overwriting them leaves nothing stale behind. *)
type state = {
  mapping : int array;
  used : bool array; (* over target vertices *)
  mark : int array; (* flood stamps, current when equal to [epoch] *)
  queue : int array;
  hist : int array; (* hist.(s): total size of the free regions of size s *)
  pieces : int array;
  mutable epoch : int;
  limit : int;
  budget : int;
  mutable results : int array list; (* reversed *)
  mutable count : int;
  mutable nodes : int;
}

let make_state ?(budget = max_int) e limit =
  let nt = e.nt in
  {
    mapping = Array.make e.np (-1);
    used = Array.make nt false;
    mark = Array.make nt 0;
    queue = Array.make (max 1 nt) 0;
    hist = Array.make (nt + 1) 0;
    pieces = Array.make (max 1 e.max_deg_t) 0;
    epoch = 0;
    limit;
    budget;
    results = [];
    count = 0;
    nodes = 0;
  }

let clear_state st =
  st.results <- [];
  st.count <- 0;
  st.nodes <- 0;
  Array.fill st.mapping 0 (Array.length st.mapping) (-1);
  Array.fill st.used 0 (Array.length st.used) false

(* ------------------------------------------------------------------ *)
(* Packing refutation                                                  *)
(* ------------------------------------------------------------------ *)

(* A connected pattern piece maps onto a connected set of unused target
   vertices, so it lies inside one free region (a connected component of
   the target over the unused vertices) at least its size.  Hence for
   every size s, the pieces of size >= s must fit, by total size, into
   the free regions of size >= s.  Both rules below apply this test; they
   only drop branches that hold no mapping. *)

(* BFS from [start] over unused vertices not yet stamped in this epoch,
   stamping what it reaches; stops early once [cap] vertices are reached.
   Returns the count reached (at least [cap] when it stopped early). *)
let flood e st start cap =
  let mark = st.mark and queue = st.queue and used = st.used in
  let epoch = st.epoch in
  mark.(start) <- epoch;
  queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && !tail < cap do
    let row = Graph.neighbors e.target queue.(!head) in
    incr head;
    for i = 0 to Array.length row - 1 do
      let w = row.(i) in
      if (not used.(w)) && mark.(w) <> epoch then begin
        mark.(w) <- epoch;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

let refuted () =
  if Telemetry.enabled () then Telemetry.incr m_ref_packing;
  false

(* Before the seed loop of component [k]: it and every later component
   must pack into the free regions. *)
let components_pack e st k =
  st.epoch <- st.epoch + 1;
  let hist = st.hist and largest = ref 0 in
  for c = 0 to e.nt - 1 do
    if (not st.used.(c)) && st.mark.(c) <> st.epoch then begin
      let size = flood e st c max_int in
      hist.(size) <- hist.(size) + size;
      if size > !largest then largest := size
    end
  done;
  (* Components largest first; [room] sums the regions of size >= [s]. *)
  let ok = ref true and need = ref 0 and room = ref 0 and s = ref (!largest + 1) in
  for i = 0 to Array.length e.by_size - 1 do
    let j = e.by_size.(i) in
    if j >= k then begin
      let size = e.comp_size.(j) in
      while !s > size do
        decr s;
        room := !room + hist.(!s)
      done;
      need := !need + size;
      if !need > !room then ok := false
    end
  done;
  Array.fill hist 0 (!largest + 1) 0;
  !ok || refuted ()

(* For seed candidate [c] at [step]: the seed's branches must pack into
   the free regions next to [c], [c] itself removed.  A region that holds
   every branch vertex settles it without measuring the others. *)
let branches_pack e st step c =
  let branches = e.branches.(step) in
  let total = e.comp_size.(e.seed_comp.(step)) - 1 in
  st.epoch <- st.epoch + 1;
  st.mark.(c) <- st.epoch;
  let row = Graph.neighbors e.target c and pieces = st.pieces in
  let npieces = ref 0 and fits = ref false and i = ref 0 in
  while (not !fits) && !i < Array.length row do
    let w = row.(!i) in
    if (not st.used.(w)) && st.mark.(w) <> st.epoch then begin
      let size = flood e st w total in
      if size >= total then fits := true
      else begin
        pieces.(!npieces) <- size;
        incr npieces
      end
    end;
    incr i
  done;
  !fits
  || begin
       insertion_sort (fun a b -> Int.compare b a) pieces 0 !npieces;
       let ok = ref true and need = ref 0 and room = ref 0 and j = ref 0 in
       for i = 0 to Array.length branches - 1 do
         let size = branches.(i) in
         while !j < !npieces && pieces.(!j) >= size do
           room := !room + pieces.(!j);
           incr j
         done;
         need := !need + size;
         if !need > !room then ok := false
       done;
       !ok || refuted ()
     end

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

exception Limit_reached

exception Budget_exhausted

let count_node st =
  if st.nodes >= st.budget then raise Budget_exhausted;
  st.nodes <- st.nodes + 1;
  if Telemetry.enabled () then Telemetry.incr m_nodes

let record st =
  st.results <- Array.copy st.mapping :: st.results;
  st.count <- st.count + 1;
  if st.count >= st.limit then raise Limit_reached

(* One node per tried candidate.  A step with earlier-ordered neighbors
   walks the sorted row of the first one's image and keeps the unused
   vertices adjacent to every other earlier neighbor's image; a seed step
   walks every unused vertex, after the packing rules.  Both walks are
   ascending, so the tree is the seed enumerator's, minus dead branches. *)
let rec extend e st step =
  if step >= Array.length e.order then record st
  else begin
    let v = e.order.(step) in
    let used = st.used and mapping = st.mapping and back = e.back in
    let first = e.back_at.(step) and last = e.back_at.(step + 1) in
    if first = last then begin
      if components_pack e st e.seed_comp.(step) then
        for c = 0 to e.nt - 1 do
          if (not used.(c)) && compatible e v c && branches_pack e st step c
          then try_candidate e st step v c
        done
    end
    else begin
      let cands = Graph.neighbors e.target mapping.(back.(first)) in
      for i = 0 to Array.length cands - 1 do
        let c = cands.(i) in
        if not used.(c) then begin
          let j = ref (first + 1) in
          while
            !j < last
            && Graph.mask_mem (Graph.neighbor_mask e.target mapping.(back.(!j))) c
          do
            incr j
          done;
          if !j = last && compatible e v c then try_candidate e st step v c
        end
      done
    end
  end

and try_candidate e st step v c =
  count_node st;
  st.mapping.(v) <- c;
  st.used.(c) <- true;
  extend e st (step + 1);
  st.used.(c) <- false;
  st.mapping.(v) <- -1

let run_sequential e limit =
  let st = make_state e limit in
  (try extend e st 0 with Limit_reached -> ());
  List.rev st.results

(* Candidate images of the first ordered vertex, ascending. *)
let compute_firsts e =
  let v0 = e.order.(0) in
  let firsts = ref [] in
  for c = e.nt - 1 downto 0 do
    if compatible e v0 c then firsts := c :: !firsts
  done;
  Array.of_list !firsts

(* Sparse candidate generation: keep the [cap] first-vertex images whose
   target degree is closest to the pattern vertex's (ties toward the
   smallest index), restoring ascending order afterwards so the surviving
   enumeration is a subsequence of the uncapped one. *)
let cap_firsts e cap firsts =
  if Array.length firsts <= cap then firsts
  else begin
    let v0 = e.order.(0) in
    let keyed = Array.map (fun c -> (abs (e.deg_t.(c) - e.deg_p.(v0)), c)) firsts in
    Array.sort
      (fun (da, a) (db, b) ->
        match Int.compare da db with 0 -> Int.compare a b | c -> c)
      keyed;
    let kept = Array.init cap (fun i -> snd keyed.(i)) in
    Array.sort Int.compare kept;
    kept
  end

(* The sequential search's step-0 packing rules, applied to a ready list
   of first images.  Under [root_cap] this runs on the capped list, so
   the cap keeps the same images as without the rules. *)
let pack_firsts e firsts =
  let st = make_state e 1 in
  if components_pack e st 0 then
    Array.of_list
      (List.filter (branches_pack e st 0) (Array.to_list firsts))
  else [||]

(* Pool fan-out over the first ordered vertex's candidate images: each
   first-vertex choice is one pool slot enumerated completely (capped at
   [limit]); slot-per-candidate collection plus an ascending merge
   reproduces the sequential result list exactly, truncated to [limit].
   Search state is per participating worker — the pool guarantees a worker
   id never runs two slots concurrently — allocated lazily on the worker's
   first slot and reset between slots (a previous slot that hit the limit
   left [mapping] and [used] mid-search).

   A slot that spends its [budget] nodes keeps what it found and ends the
   result list there: the answer is a prefix of the unbudgeted one, and
   each slot's search is the same whichever worker runs it. *)
let run_parallel ?budget e limit jobs firsts =
  let v0 = e.order.(0) in
  let total = Array.length firsts in
  let slots = Array.make total ([], false) in
  let jobs = min jobs total in
  let states = Array.make (max 1 jobs) None in
  Qcp_util.Task_pool.parallel_for
    (Qcp_util.Task_pool.get ())
    ~jobs
    ~body:(fun ~worker i ->
      let st =
        match states.(worker) with
        | Some st ->
          clear_state st;
          st
        | None ->
          let st = make_state ?budget e limit in
          states.(worker) <- Some st;
          st
      in
      let c = firsts.(i) in
      if Telemetry.enabled () then Telemetry.incr m_nodes;
      st.mapping.(v0) <- c;
      st.used.(c) <- true;
      let exhausted =
        try
          extend e st 1;
          false
        with
        | Limit_reached -> false
        | Budget_exhausted -> true
      in
      slots.(i) <- (List.rev st.results, exhausted))
    total;
  let rec prefix i =
    if i >= total then []
    else
      let results, exhausted = slots.(i) in
      if exhausted then results else results @ prefix (i + 1)
  in
  Qcp_util.Listx.take limit (prefix 0)

let enumerate ?(limit = 100) ?(jobs = 1) ?root_cap ?slot_budget ~pattern
    ~target () =
  if limit <= 0 then []
  else begin
    if Telemetry.enabled () then Telemetry.incr m_enumerations;
    let run () =
      let order = ordering pattern in
      if
        Graph.max_degree pattern > Graph.max_degree target
        || not (degree_sequence_ok pattern target)
      then begin
        if Telemetry.enabled () then Telemetry.incr m_ref_degseq;
        []
      end
      else begin
        let e = make_engine ~pattern ~target ~order in
        let fan_out ?budget firsts =
          let firsts = pack_firsts e firsts in
          if Array.length firsts = 0 then []
          else run_parallel ?budget e limit (max 1 jobs) firsts
        in
        match root_cap with
        | Some cap when Array.length order > 0 ->
          fan_out ?budget:slot_budget (cap_firsts e (max 1 cap) (compute_firsts e))
        | _ ->
          if jobs > 1 && limit > 1 && Array.length order > 0 then
            fan_out (compute_firsts e)
          else run_sequential e limit
      end
    in
    Qcp_obs.Trace.with_span ~cat:"graph" "monomorph/enumerate" run
  end

let exists ~pattern ~target = enumerate ~limit:1 ~pattern ~target () <> []

let check ~pattern ~target mapping =
  Array.length mapping = Graph.n pattern
  && begin
       let used = Array.make (Graph.n target) false in
       let injective = ref true in
       Array.iter
         (fun image ->
           if image >= 0 then begin
             if image >= Graph.n target || used.(image) then injective := false
             else used.(image) <- true
           end)
         mapping;
       !injective
     end
  && List.for_all
       (fun (u, v) ->
         mapping.(u) >= 0 && mapping.(v) >= 0
         && Graph.mem_edge target mapping.(u) mapping.(v))
       (Graph.edges pattern)

(* ------------------------------------------------------------------ *)
(* Incremental existence oracle                                        *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* The workspace grows its pattern one interaction pair at a time and only
     ever asks "does the grown pattern still embed?".  Rebuilding a Graph.t
     per query (sort + dedup + adjacency construction) dominated that loop;
     here the pattern lives as mutable degree counters and sorted neighbor
     rows over the qubit indices, and a query is a plain existence search
     over that structure.  Every per-query array -- the order, the
     earlier-neighbor rows, the free list -- is scratch built into [t], and
     the search runs as top-level functions over it, so a query allocates
     nothing but the witness it returns. *)

  type t = {
    qubits : int;
    nt : int;
    deg_t : int array;
    max_deg_t : int;
    trow : int array array; (* target neighbor rows, ascending *)
    tmask : int array array; (* target neighbor bitsets *)
    stride : int; (* max(1, max_deg_t): row width of [back] *)
    prow : int array array;
        (* pattern neighbor rows, ascending in their first [pdeg] slots;
           grown by doubling, so any degree fits *)
    pdeg : int array;
    (* per-query scratch, allocated once *)
    mapping : int array;
    used : bool array; (* over target vertices *)
    next : int array;
    prev : int array;
        (* free list: the unused target vertices, ascending, as a circular
           doubly linked list through the sentinel [nt] *)
    bucket : int array; (* counting-sort offsets, per pattern degree *)
    seeds : int array; (* active qubits, degree descending then ascending *)
    order : int array;
    pos : int array; (* pos.(q) = index of q in [order]; -1 unvisited *)
    back : int array;
        (* back.(step * stride + i): the earlier-ordered pattern neighbors of
           order.(step), ascending; a feasible query has pdeg <= max_deg_t,
           so every row fits *)
    nback : int array; (* row lengths of [back] *)
    mutable order_len : int;
    mutable budget : int;
    mutable nodes : int;
    mutable exhausted : bool;
  }

  let create ~qubits ~target =
    let nt = Graph.n target in
    let max_deg_t = Graph.max_degree target in
    let stride = max 1 max_deg_t in
    {
      qubits;
      nt;
      deg_t = Array.init nt (Graph.degree target);
      max_deg_t;
      trow = Array.init nt (Graph.neighbors target);
      tmask = Array.init nt (Graph.neighbor_mask target);
      stride;
      (* Room for one query edge on a qubit at the target's maximum degree,
         so the workspace's queries never grow a row. *)
      prow = Array.init qubits (fun _ -> Array.make (max_deg_t + 1) 0);
      pdeg = Array.make qubits 0;
      mapping = Array.make qubits (-1);
      used = Array.make nt false;
      next = Array.make (nt + 1) 0;
      prev = Array.make (nt + 1) 0;
      bucket = Array.make (max_deg_t + 1) 0;
      seeds = Array.make (max 1 qubits) 0;
      order = Array.make (max 1 qubits) 0;
      pos = Array.make qubits (-1);
      back = Array.make (max 1 (qubits * stride)) 0;
      nback = Array.make (max 1 qubits) 0;
      order_len = 0;
      budget = max_int;
      nodes = 0;
      exhausted = false;
    }

  let reset inc = Array.fill inc.pdeg 0 inc.qubits 0

  let mem inc a b =
    let row = inc.prow.(a) and d = inc.pdeg.(a) in
    let i = ref 0 in
    while !i < d && row.(!i) < b do
      incr i
    done;
    !i < d && row.(!i) = b

  (* Sorted insertion into [a]'s row, doubling it when full. *)
  let insert inc a b =
    let d = inc.pdeg.(a) in
    if d = Array.length inc.prow.(a) then begin
      let grown = Array.make (2 * d) 0 in
      Array.blit inc.prow.(a) 0 grown 0 d;
      inc.prow.(a) <- grown
    end;
    let row = inc.prow.(a) in
    let i = ref d in
    while !i > 0 && row.(!i - 1) > b do
      row.(!i) <- row.(!i - 1);
      decr i
    done;
    row.(!i) <- b;
    inc.pdeg.(a) <- d + 1

  let delete inc a b =
    let row = inc.prow.(a) and d = inc.pdeg.(a) in
    let i = ref 0 in
    while row.(!i) <> b do
      incr i
    done;
    Array.blit row (!i + 1) row !i (d - 1 - !i);
    inc.pdeg.(a) <- d - 1

  let add inc (a, b) =
    if a <> b && not (mem inc a b) then begin
      insert inc a b;
      insert inc b a
    end

  let remove inc (a, b) =
    if a <> b && mem inc a b then begin
      delete inc a b;
      delete inc b a
    end

  let degree inc q = inc.pdeg.(q)

  let last_nodes inc = inc.nodes

  let last_exhausted inc = inc.exhausted

  (* Component-by-component BFS order from maximum-degree seeds.  Seeds are
     the active qubits counting-sorted by degree, descending, ties in
     ascending qubit order; BFS neighbors come off the sorted rows, so
     they are visited in ascending qubit order.  The caller has checked
     every degree is at most [max_deg_t]. *)
  let build_order inc =
    let bucket = inc.bucket and pdeg = inc.pdeg in
    Array.fill bucket 0 (Array.length bucket) 0;
    for q = 0 to inc.qubits - 1 do
      let d = pdeg.(q) in
      if d > 0 then bucket.(d) <- bucket.(d) + 1
    done;
    let total = ref 0 in
    for d = inc.max_deg_t downto 1 do
      let k = bucket.(d) in
      bucket.(d) <- !total;
      total := !total + k
    done;
    for q = 0 to inc.qubits - 1 do
      let d = pdeg.(q) in
      if d > 0 then begin
        inc.seeds.(bucket.(d)) <- q;
        bucket.(d) <- bucket.(d) + 1
      end
    done;
    Array.fill inc.pos 0 inc.qubits (-1);
    (* [order] itself is the BFS queue: [head] consumes what the loop below
       appends, and the emission order is exactly the visit order. *)
    let len = ref 0 and head = ref 0 in
    for s = 0 to !total - 1 do
      let seed = inc.seeds.(s) in
      if inc.pos.(seed) < 0 then begin
        inc.pos.(seed) <- !len;
        inc.order.(!len) <- seed;
        incr len;
        while !head < !len do
          let u = inc.order.(!head) in
          incr head;
          let row = inc.prow.(u) in
          for i = 0 to pdeg.(u) - 1 do
            let w = row.(i) in
            if inc.pos.(w) < 0 then begin
              inc.pos.(w) <- !len;
              inc.order.(!len) <- w;
              incr len
            end
          done
        done
      end
    done;
    inc.order_len <- !len

  (* Fill the [back] rows: every pattern neighbor of an ordered qubit is in
     its component, hence ordered too, so [pos] decides "earlier". *)
  let build_back inc =
    for step = 0 to inc.order_len - 1 do
      let u = inc.order.(step) in
      let base = step * inc.stride and row = inc.prow.(u) in
      let k = ref 0 in
      for i = 0 to inc.pdeg.(u) - 1 do
        let w = row.(i) in
        if inc.pos.(w) < step then begin
          inc.back.(base + !k) <- w;
          incr k
        end
      done;
      inc.nback.(step) <- !k
    done

  (* Every target vertex free, ascending. *)
  let reset_free inc =
    let nt = inc.nt in
    for c = 0 to nt do
      inc.next.(c) <- (if c = nt then 0 else c + 1);
      inc.prev.(c) <- (if c = 0 then nt else c - 1)
    done

  exception Found

  exception Exhausted

  (* The DFS tree is the mask-intersection search's, node for node: at a
     step with earlier-ordered neighbors the candidates are the target
     neighbors of the first one's image (a sorted row, so ascending) that
     are adjacent to every other earlier neighbor's image, unused and of
     sufficient degree -- exactly the set the intersection of their
     neighbor masks minus the used set yields, in the same order.  A step
     without one (a component seed) walks the free list, which holds the
     unused target vertices in ascending order.  Nodes are counted per
     tried candidate, and the budget cuts at the same node. *)
  let rec extend inc step =
    if step >= inc.order_len then raise Found;
    let v = inc.order.(step) in
    let dv = inc.pdeg.(v) and nb = inc.nback.(step) in
    let deg_t = inc.deg_t and mapping = inc.mapping in
    if nb = 0 then begin
      let next = inc.next in
      let c = ref next.(inc.nt) in
      while !c <> inc.nt do
        let x = !c in
        if deg_t.(x) >= dv then try_candidate inc step v x;
        (* [x] is relinked by now, so its successor is current. *)
        c := next.(x)
      done
    end
    else begin
      let used = inc.used and back = inc.back and tmask = inc.tmask in
      let base = step * inc.stride in
      let cands = inc.trow.(mapping.(back.(base))) in
      for i = 0 to Array.length cands - 1 do
        let c = cands.(i) in
        if (not used.(c)) && deg_t.(c) >= dv then begin
          let j = ref 1 in
          while !j < nb && Graph.mask_mem tmask.(mapping.(back.(base + !j))) c do
            incr j
          done;
          if !j = nb then try_candidate inc step v c
        end
      done
    end

  (* Map [v] to [c] and recurse.  [c] leaves the free list for the
     subtree and is relinked in LIFO order on the way out, the dancing-links
     discipline that leaves the list exactly as it was. *)
  and try_candidate inc step v c =
    if inc.nodes >= inc.budget then raise Exhausted;
    inc.nodes <- inc.nodes + 1;
    inc.mapping.(v) <- c;
    inc.used.(c) <- true;
    let p = inc.prev.(c) and n = inc.next.(c) in
    inc.next.(p) <- n;
    inc.prev.(n) <- p;
    extend inc (step + 1);
    inc.next.(p) <- c;
    inc.prev.(n) <- c;
    inc.used.(c) <- false;
    inc.mapping.(v) <- -1

  let search ?budget inc =
    inc.budget <- (match budget with None -> max_int | Some b -> b);
    inc.nodes <- 0;
    inc.exhausted <- false;
    (* Quick refutations: an active qubit needs a target vertex of at least
       its degree; active qubits need distinct target vertices. *)
    let active = ref 0 and max_deg = ref 0 in
    for q = 0 to inc.qubits - 1 do
      let d = inc.pdeg.(q) in
      if d > 0 then begin
        incr active;
        if d > !max_deg then max_deg := d
      end
    done;
    if !active > inc.nt || !max_deg > inc.max_deg_t then None
    else begin
      build_order inc;
      build_back inc;
      Array.fill inc.mapping 0 inc.qubits (-1);
      Array.fill inc.used 0 inc.nt false;
      reset_free inc;
      match extend inc 0 with
      | () -> None
      | exception Found -> Some (Array.copy inc.mapping)
      | exception Exhausted ->
        inc.exhausted <- true;
        None
    end

  let embeds_with ?budget inc ((a, b) as pair) =
    let fresh = not (mem inc a b) in
    if fresh then add inc pair;
    let result = search ?budget inc in
    if fresh then remove inc pair;
    result
end
