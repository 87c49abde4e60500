type event = {
  name : string;
  cat : string;
  tid : int;
  seq : int;
  ts : float;
  dur : float;
  self : float;
  args : (string * string) list;
}

(* One ring per (domain, epoch).  [buf] is a circular buffer indexed by
   [pushed mod capacity]; only the owning domain writes it.  Readers
   ({!events}) run after the parallel regions of interest have completed,
   so the snapshot they take is of quiescent rings. *)
type ring = {
  r_tid : int;
  r_epoch : int;
  r_buf : event option array;
  mutable r_pushed : int;
}

(* Per-domain state: the cached ring and the open-span stack of
   child-duration accumulators. *)
type tls = { mutable t_ring : ring option; mutable t_stack : float ref list }

let on = Atomic.make false

let epoch = Atomic.make 0

let seq = Atomic.make 0

let capacity = ref 32768

let t0 = ref 0.0

let registry_lock = Mutex.create ()

let rings : ring list ref = ref []

let tls_key = Domain.DLS.new_key (fun () -> { t_ring = None; t_stack = [] })

let now () = Unix.gettimeofday ()

let enabled () = Atomic.get on

let set_capacity cap = capacity := cap

let start ?(capacity = 32768) () =
  (* Bump the epoch first so workers holding a ring from the previous
     recording re-register before their next event lands. *)
  Atomic.incr epoch;
  Atomic.set seq 0;
  set_capacity (max 16 capacity);
  Mutex.protect registry_lock (fun () -> rings := []);
  t0 := now ();
  Atomic.set on true

let stop () = Atomic.set on false

let ring_for tls =
  let e = Atomic.get epoch in
  match tls.t_ring with
  | Some r when r.r_epoch = e -> r
  | _ ->
    let r =
      {
        r_tid = (Domain.self () :> int);
        r_epoch = e;
        r_buf = Array.make !capacity None;
        r_pushed = 0;
      }
    in
    Mutex.protect registry_lock (fun () -> rings := r :: !rings);
    tls.t_ring <- Some r;
    r

let record tls ev =
  let r = ring_for tls in
  r.r_buf.(r.r_pushed mod Array.length r.r_buf) <- Some ev;
  r.r_pushed <- r.r_pushed + 1

let eval_args = function None -> [] | Some f -> f ()

let close_span tls ~name ~cat ~args ~start_ts acc =
  let stop_ts = now () -. !t0 in
  let dur = Float.max 0.0 (stop_ts -. start_ts) in
  (match tls.t_stack with
  | _ :: (parent :: _ as rest) ->
    parent := !parent +. dur;
    tls.t_stack <- rest
  | _ :: [] -> tls.t_stack <- []
  | [] -> ());
  if Atomic.get on then
    record tls
      {
        name;
        cat;
        tid = (Domain.self () :> int);
        seq = Atomic.fetch_and_add seq 1;
        ts = start_ts;
        dur;
        self = Float.max 0.0 (dur -. !acc);
        args = eval_args args;
      }

let with_span ?(cat = "") ?args name f =
  if not (Atomic.get on) then f ()
  else begin
    let tls = Domain.DLS.get tls_key in
    let acc = ref 0.0 in
    tls.t_stack <- acc :: tls.t_stack;
    let start_ts = now () -. !t0 in
    match f () with
    | v ->
      close_span tls ~name ~cat ~args ~start_ts acc;
      v
    | exception exn ->
      close_span tls ~name ~cat ~args ~start_ts acc;
      raise exn
  end

let ring_events r =
  let cap = Array.length r.r_buf in
  let first = max 0 (r.r_pushed - cap) in
  let out = ref [] in
  for i = r.r_pushed - 1 downto first do
    match r.r_buf.(i mod cap) with
    | Some ev -> out := ev :: !out
    | None -> ()
  done;
  !out

let events () =
  let rs = Mutex.protect registry_lock (fun () -> !rings) in
  let e = Atomic.get epoch in
  List.concat_map
    (fun r -> if r.r_epoch = e then ring_events r else [])
    rs
  |> List.sort (fun a b -> Int.compare a.seq b.seq)

let dropped () =
  let rs = Mutex.protect registry_lock (fun () -> !rings) in
  let e = Atomic.get epoch in
  List.fold_left
    (fun acc r ->
      if r.r_epoch = e then acc + max 0 (r.r_pushed - Array.length r.r_buf)
      else acc)
    0 rs
