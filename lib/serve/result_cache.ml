(* Entries sit on an intrusive doubly-linked recency list through a
   sentinel: [sentinel.next] is the most recently used entry,
   [sentinel.prev] the least.  Every access moves its entry to the front,
   so the tail is always the entry a minimum-tick scan would pick. *)
type entry = {
  key : string;
  mutable value : string;
  mutable prev : entry;
  mutable next : entry;
}

type t = {
  cap : int;
  table : (string, entry) Hashtbl.t;
  sentinel : entry;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  lock : Mutex.t;
}

let create cap =
  let rec sentinel = { key = ""; value = ""; prev = sentinel; next = sentinel } in
  {
    cap;
    table = Hashtbl.create (max 16 (min cap 4096));
    sentinel;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    lock = Mutex.create ();
  }

let capacity t = t.cap

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = with_lock t (fun () -> Hashtbl.length t.table)

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  let s = t.sentinel in
  e.prev <- s;
  e.next <- s.next;
  s.next.prev <- e;
  s.next <- e

let find t key =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some entry ->
    unlink entry;
    push_front t entry;
    t.hit_count <- t.hit_count + 1;
    Some entry.value
  | None ->
    t.miss_count <- t.miss_count + 1;
    None

(* Called only on a full cache of positive capacity: the list is never
   empty here. *)
let evict_lru t =
  let victim = t.sentinel.prev in
  unlink victim;
  Hashtbl.remove t.table victim.key;
  t.eviction_count <- t.eviction_count + 1

let add t key value =
  if t.cap > 0 then
    with_lock t @@ fun () ->
    match Hashtbl.find_opt t.table key with
    | Some entry ->
      entry.value <- value;
      unlink entry;
      push_front t entry
    | None ->
      if Hashtbl.length t.table >= t.cap then evict_lru t;
      let entry = { key; value; prev = t.sentinel; next = t.sentinel } in
      push_front t entry;
      Hashtbl.add t.table key entry

let hits t = with_lock t (fun () -> t.hit_count)

let misses t = with_lock t (fun () -> t.miss_count)

let evictions t = with_lock t (fun () -> t.eviction_count)
