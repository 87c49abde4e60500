module Graph = Qcp_graph.Graph
module Circuit = Qcp_circuit.Circuit
module Perm = Qcp_route.Perm
module Swap_network = Qcp_route.Swap_network
module Bisect_router = Qcp_route.Bisect_router

(* Permutations are int arrays; the default polymorphic hash truncates long
   arrays, which would collapse all large-register perms into few buckets. *)
module Perm_tbl = Hashtbl.Make (struct
  type t = int array

  let equal = Stdlib.( = )

  let hash a =
    (* FNV-1a over the entries *)
    let h = ref 0x811c9dc5 in
    Array.iter (fun x -> h := (!h lxor x) * 0x01000193 land max_int) a;
    !h
end)

type route_entry = Swap_network.flat

type table = {
  entries : route_entry Perm_tbl.t;
  order : int array Queue.t;
      (* insertion order; [Queue.length order = Perm_tbl.length entries]
         outside the lock, the FIFO eviction victim is the queue's head *)
  cap : int;
  memo : Bisect_router.memo option;
  is_private : bool; (* made by [private_copy]: the only kind [trim] clears *)
  lock : Mutex.t;
}

type t = {
  table : table;
  hits : int Atomic.t;
  misses : int Atomic.t;
  mutable graphs : (Circuit.t * Graph.t) list;
  mutable mappings : (Circuit.t * int array list) list;
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

let make_table ~cap ~memo =
  {
    entries = Perm_tbl.create (min cap 64);
    order = Queue.create ();
    cap;
    memo;
    is_private = false;
    lock = Mutex.create ();
  }

let uncached () = make_table ~cap:0 ~memo:None

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
          make_table ~cap:route_capacity
            ~memo:(Some (Bisect_router.make_memo ()))
        in
        tables := (key, table) :: !tables;
        table)

let private_copy table =
  { table with entries = Perm_tbl.create 64; order = Queue.create ();
               is_private = true; lock = Mutex.create () }

let create table =
  { table; hits = Atomic.make 0; misses = Atomic.make 0; graphs = [];
    mappings = [] }

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
        Perm_tbl.reset table.entries;
        Queue.clear table.order);
    t.graphs <- [];
    t.mappings <- []
  end

let route t ~route perm =
  let table = t.table in
  match Mutex.protect table.lock (fun () -> Perm_tbl.find_opt table.entries perm) with
  | Some entry ->
    count_hit t;
    entry
  | None ->
    count_miss t;
    (* Routing runs outside the lock; concurrent scorers of the same perm
       may race to insert, but the router is deterministic so both compute
       the same entry. *)
    let entry = route table.memo perm in
    if table.cap > 0 then
      Mutex.protect table.lock (fun () ->
          if not (Perm_tbl.mem table.entries perm) then begin
            if Perm_tbl.length table.entries >= table.cap then
              Perm_tbl.remove table.entries (Queue.pop table.order);
            let key = Array.copy perm in
            Queue.push key table.order;
            Perm_tbl.add table.entries key entry
          end);
    entry

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
