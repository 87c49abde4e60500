module Graph = Qcp_graph.Graph
module Circuit = Qcp_circuit.Circuit
module Perm = Qcp_route.Perm
module Swap_network = Qcp_route.Swap_network
module Bisect_router = Qcp_route.Bisect_router

(* FNV-1a over a permutation's entries: the polymorphic hash truncates
   long arrays, which would collapse all large-register perms into few
   buckets.  Non-negative. *)
let hash_perm (a : int array) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x01000193 land max_int
  done;
  !h

let rec same_perm (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && same_perm a b (i - 1))

type route_entry = Swap_network.sequence

(* Route entries sit in a ring of slots in insertion order (the oldest at
   [first], so the FIFO eviction victim is always [first]), found through
   an open-addressing index with linear probing.  Neither a lookup nor an
   insertion into a table at its cap allocates: a miss stores only its
   key and its entry.  Every mutable field is guarded by [lock]. *)
type table = {
  cap : int;
  memo : Bisect_router.memo option;
  is_private : bool; (* made by [private_copy]: the only kind [trim] clears *)
  lock : Mutex.t;
  mutable keys : int array array; (* slot -> key *)
  mutable entries : route_entry array; (* slot -> entry *)
  mutable hashes : int array; (* slot -> [hash_perm] of its key *)
  mutable first : int; (* the oldest live slot *)
  mutable size : int; (* live slots: [first] and the [size - 1] after it *)
  mutable index : int array;
      (* power-of-two length, at least twice the slot count; a cell holds
         a live slot + 1, or 0 when empty *)
}

type t = {
  table : table;
  hits : int Atomic.t;
  misses : int Atomic.t;
  mutable graphs : (Circuit.t * Graph.t) list;
  mutable mappings : (Circuit.t * int array list) list;
  mutable stages : (Circuit.t * Qcp_circuit.Timing.stage) list;
}

let memo_cap = 32

(* The cross-run tables outlive any single run (they die with their graph,
   and memoized adjacencies keep graphs alive), so every table carries a
   hard entry cap instead of relying on a caller-driven trim: runs over
   one graph — a long placement, a daemon's stream of requests — keep
   meeting new connecting permutations, and without the cap a table would
   carry every one of them as a flat SWAP schedule, for the process
   lifetime.  Eviction is FIFO on insertion order, one entry at a
   time: given the same insertion sequence the same keys survive, so a
   daemon replaying identical traffic sees identical hit patterns — a
   whole-table reset would instead tie the surviving set to where in the
   stream the cap happened to trip.  Evicting loses only memoization
   (every entry is a pure function of its key). *)
let route_capacity = 1024

let initial_slots = 64

let index_size slots =
  let rec up k = if k >= 2 * slots then k else up (2 * k) in
  up 1

(* Empty storage for up to [slots] entries.  Storage of that size
   already is cleared in place: a spill run trims its table after every
   stage, and fresh arrays each time would outlive minor collections. *)
let reset_storage table slots =
  if Array.length table.keys = slots && Array.length table.index > 0 then begin
    Array.fill table.keys 0 slots [||];
    Array.fill table.entries 0 slots [||];
    Array.fill table.index 0 (Array.length table.index) 0
  end
  else begin
    table.keys <- Array.make slots [||];
    table.entries <- Array.make slots [||];
    table.hashes <- Array.make slots 0;
    table.index <- Array.make (index_size slots) 0
  end;
  table.first <- 0;
  table.size <- 0

let make_table ?(is_private = false) ~cap memo =
  let table =
    { cap; memo; is_private; lock = Mutex.create (); keys = [||];
      entries = [||]; hashes = [||]; first = 0; size = 0; index = [||] }
  in
  reset_storage table (min cap initial_slots);
  table

let uncached () = make_table ~cap:0 None

(* Why graph identity is a sound key: see [shared] in the interface.  The
   ephemeron key lets the cached state die with its graph. *)
module Graph_registry = Ephemeron.K1.Make (struct
  type t = Graph.t

  let equal = ( == )

  (* Immutable content only: a graph's lazily filled degree tables would
     move a whole-value hash between insertion and lookup. *)
  let hash g = Hashtbl.hash (Graph.n g, Graph.edge_count g)
end)

let registry : ((Options.router * bool) * table) list ref Graph_registry.t =
  Graph_registry.create 8

let registry_lock = Mutex.create ()

let shared graph ~router ~leaf_override =
  let key = (router, leaf_override) in
  Mutex.protect registry_lock (fun () ->
      let tables =
        match Graph_registry.find_opt registry graph with
        | Some tables -> tables
        | None ->
          let tables = ref [] in
          Graph_registry.add registry graph tables;
          tables
      in
      match List.assoc_opt key !tables with
      | Some table -> table
      | None ->
        let table =
          make_table ~cap:route_capacity (Some (Bisect_router.make_memo ()))
        in
        tables := (key, table) :: !tables;
        table)

let private_copy table = make_table ~is_private:true ~cap:table.cap table.memo

let create table =
  { table; hits = Atomic.make 0; misses = Atomic.make 0; graphs = [];
    mappings = []; stages = [] }

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses

(* The per-instance atomics above feed {!Placer.stats}; the process-global
   registry additionally accumulates across runs when telemetry is on. *)
module Telemetry = Qcp_obs.Metrics

let m_hits = Telemetry.counter Telemetry.global "score_cache.hits"

let m_misses = Telemetry.counter Telemetry.global "score_cache.misses"

let count_hit t =
  Atomic.incr t.hits;
  if Telemetry.enabled () then Telemetry.incr m_hits

let count_miss t =
  Atomic.incr t.misses;
  if Telemetry.enabled () then Telemetry.incr m_misses

let memoizes t = t.table.cap > 0

(* The subcircuit memos are only touched from sequential orchestration
   (see their doc below), so clearing them needs no lock. *)
let trim t =
  let table = t.table in
  if table.is_private then begin
    Mutex.protect table.lock (fun () ->
        reset_storage table (min table.cap initial_slots));
    t.graphs <- [];
    t.mappings <- [];
    t.stages <- []
  end

(* The slot holding [key] (of hash [h]), probing from index cell [i], or
   -1.  Top level, so a lookup builds no closure. *)
let rec find_from table key h i =
  let cell = table.index.(i) in
  if cell = 0 then -1
  else
    let slot = cell - 1 in
    let k = table.keys.(slot) in
    if
      table.hashes.(slot) = h
      && Array.length k = Array.length key
      && same_perm k key (Array.length key - 1)
    then slot
    else find_from table key h ((i + 1) land (Array.length table.index - 1))

let find table key h = find_from table key h (h land (Array.length table.index - 1))

(* Point the first free index cell from [i] on at [slot]. *)
let rec index_from index slot i =
  if index.(i) = 0 then index.(i) <- slot + 1
  else index_from index slot ((i + 1) land (Array.length index - 1))

let index_slot table slot =
  index_from table.index slot
    (table.hashes.(slot) land (Array.length table.index - 1))

let rec cell_of index slot i =
  if index.(i) = slot + 1 then i
  else cell_of index slot ((i + 1) land (Array.length index - 1))

(* Close the index hole at [hole], scanning the probe run after it from
   [j]: a cell may move back into the hole unless its home lies
   cyclically in (hole, j] (linear-probing deletion, Knuth's
   Algorithm R), so every live key stays reachable from its home. *)
let rec shift table hole j =
  let index = table.index in
  let mask = Array.length index - 1 in
  let j = (j + 1) land mask in
  let cell = index.(j) in
  if cell = 0 then index.(hole) <- 0
  else
    let home = table.hashes.(cell - 1) land mask in
    let stays =
      if hole <= j then hole < home && home <= j else hole < home || home <= j
    in
    if stays then shift table hole j
    else begin
      index.(hole) <- cell;
      shift table j j
    end

let unindex_slot table slot =
  let index = table.index in
  let hole =
    cell_of index slot (table.hashes.(slot) land (Array.length index - 1))
  in
  shift table hole hole

(* Double the slot ring (up to the cap), laid out oldest first. *)
let grow table =
  let slots = Array.length table.keys in
  let keys = table.keys and entries = table.entries and hashes = table.hashes in
  let first = table.first and size = table.size in
  reset_storage table (min table.cap (2 * slots));
  for i = 0 to size - 1 do
    let from = (first + i) mod slots in
    table.keys.(i) <- keys.(from);
    table.entries.(i) <- entries.(from);
    table.hashes.(i) <- hashes.(from);
    index_slot table i
  done;
  table.size <- size

let insert table key h entry =
  if table.size = Array.length table.keys && table.size < table.cap then grow table;
  let slots = Array.length table.keys in
  let slot =
    if table.size = table.cap then begin
      (* At the cap: the oldest entry's slot takes the new one. *)
      let victim = table.first in
      unindex_slot table victim;
      table.first <- (victim + 1) mod slots;
      victim
    end
    else begin
      table.size <- table.size + 1;
      (table.first + table.size - 1) mod slots
    end
  in
  table.keys.(slot) <- key;
  table.entries.(slot) <- entry;
  table.hashes.(slot) <- h;
  index_slot table slot

(* Lock and unlock by hand rather than through [Mutex.protect]'s closure:
   nothing between them can raise, and a hit then allocates nothing. *)
let route t ~route perm =
  let table = t.table in
  let h = hash_perm perm in
  Mutex.lock table.lock;
  let slot = find table perm h in
  if slot >= 0 then begin
    let entry = table.entries.(slot) in
    Mutex.unlock table.lock;
    count_hit t;
    entry
  end
  else begin
    Mutex.unlock table.lock;
    count_miss t;
    (* Routing runs outside the lock; concurrent scorers of the same perm
       may race to insert, but the router is deterministic so both compute
       the same entry. *)
    let entry = route table.memo perm in
    if table.cap > 0 then begin
      let key = Array.copy perm in
      Mutex.lock table.lock;
      if find table key h < 0 then insert table key h entry;
      Mutex.unlock table.lock
    end;
    entry
  end

(* The per-subcircuit memos are keyed by physical identity: the placer
   threads the same circuit values through stage formation, lookahead and
   fine tuning, so identity hits exactly where recomputation would occur.
   They are only consulted from the sequential orchestration code (never
   from parallel scoring), so a plain list with a small cap suffices. *)
let assoc_memo get set cap key compute t =
  match List.assq_opt key (get t) with
  | Some value -> value
  | None ->
    let value = compute key in
    set t (Qcp_util.Listx.take cap ((key, value) :: get t));
    value

let interaction_graph t circuit =
  if not (memoizes t) then Circuit.interaction_graph circuit
  else
    assoc_memo
      (fun t -> t.graphs)
      (fun t v -> t.graphs <- v)
      memo_cap circuit Circuit.interaction_graph t

let mappings t ~enumerate circuit =
  if not (memoizes t) then enumerate circuit
  else
    assoc_memo
      (fun t -> t.mappings)
      (fun t v -> t.mappings <- v)
      memo_cap circuit enumerate t

let compiled t circuit =
  if not (memoizes t) then Qcp_circuit.Timing.compile circuit
  else
    assoc_memo
      (fun t -> t.stages)
      (fun t v -> t.stages <- v)
      memo_cap circuit Qcp_circuit.Timing.compile t
