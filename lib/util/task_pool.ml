(* Chunked atomic-index stealing instead of Chase-Lev deques: every
   parallel region is one batch descriptor with a shared next-slot counter,
   so "stealing" is a fetch-and-add and the deque maintenance disappears.
   The pool keeps a FIFO of published regions; helper domains park on a
   condition variable between regions and are joined from [at_exit]. *)

type batch = {
  b_body : worker:int -> int -> unit;
  b_total : int;
  b_next : int Atomic.t; (* next unclaimed slot index *)
  b_workers : int Atomic.t; (* dense participant-id counter *)
  b_max_workers : int; (* = jobs: participants beyond this bail out *)
  b_completed : int Atomic.t; (* slots finished (including faulted) *)
  b_error : exn option Atomic.t; (* first slot exception, CAS-published *)
  b_mutex : Mutex.t;
  b_cond : Condition.t;
  mutable b_finished : bool;
  b_published : float; (* publish timestamp; 0.0 when telemetry is off *)
  b_claimed : int Atomic.t; (* CAS gate: first helper claim records wait *)
}

(* Pool telemetry lands in the process-global registry; each site first
   checks [Metrics.enabled] so the disabled path costs one atomic load. *)
module Obs = Qcp_obs.Metrics

let m_regions = Obs.counter Obs.global "pool.regions"

let m_slots = Obs.counter Obs.global "pool.slots"

let m_steals = Obs.counter Obs.global "pool.steals"

let m_queue_wait = Obs.histogram Obs.global "pool.queue_wait.seconds"

let m_region_seconds = Obs.histogram Obs.global "pool.region.seconds"

type t = {
  lock : Mutex.t;
  work_cond : Condition.t; (* signaled when [queue] grows or [closed] flips *)
  mutable queue : batch list; (* FIFO of regions still recruiting *)
  mutable domains : unit Domain.t list;
  mutable helper_count : int;
  mutable closed : bool;
  mutable exit_hooked : bool;
}

(* A domain executing pool work flags itself here; entry points consult the
   flag to serialize nested parallel regions instead of deadlocking. *)
let inside_key = Domain.DLS.new_key (fun () -> ref false)

let inside () = !(Domain.DLS.get inside_key)

let with_inside f =
  let r = Domain.DLS.get inside_key in
  r := true;
  Fun.protect ~finally:(fun () -> r := false) f

(* More helpers than cores never helps, and OCaml caps live domains
   (recommended max ~ the core count; hard max 128), so bound the pool. *)
let max_helpers = 31

let create () =
  {
    lock = Mutex.create ();
    work_cond = Condition.create ();
    queue = [];
    domains = [];
    helper_count = 0;
    closed = false;
    exit_hooked = false;
  }

let helpers pool = Mutex.protect pool.lock (fun () -> pool.helper_count)

let env_jobs =
  let memo =
    lazy
      (match Sys.getenv_opt "QCP_JOBS" with
      | None -> 0
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 0 -> n
        | _ -> 0))
  in
  fun () -> Lazy.force memo

let mark_batch_finished b =
  Mutex.protect b.b_mutex (fun () -> b.b_finished <- true);
  Condition.broadcast b.b_cond

let record_error b exn =
  if Option.is_none (Atomic.get b.b_error) then
    ignore (Atomic.compare_and_set b.b_error None (Some exn))

(* Claim and run slots until the batch's index counter is exhausted.  Every
   claimed slot bumps [b_completed] exactly once, even on exception, so the
   slot accounting (and hence [b_finished]) never wedges. *)
let run_batch b ~worker =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i >= b.b_total then continue := false
    else begin
      (if Option.is_none (Atomic.get b.b_error) then
         try b.b_body ~worker i with exn -> record_error b exn);
      let done_count = 1 + Atomic.fetch_and_add b.b_completed 1 in
      if done_count = b.b_total then mark_batch_finished b
    end
  done

let remove_batch pool b =
  pool.queue <- List.filter (fun it -> it != b) pool.queue

(* Helper domains loop here: park until work or shutdown, join the head
   region, repeat.  A batch stays queued while it can still absorb
   participants; whichever domain finds it exhausted (or over its
   participant cap) unlinks it. *)
let rec helper_loop pool =
  Mutex.lock pool.lock;
  while pool.queue = [] && not pool.closed do
    Condition.wait pool.work_cond pool.lock
  done;
  match pool.queue with
  | [] ->
    Mutex.unlock pool.lock (* closed *)
  | b :: _ ->
    let w = Atomic.fetch_and_add b.b_workers 1 in
    if w >= b.b_max_workers || Atomic.get b.b_next >= b.b_total then begin
      remove_batch pool b;
      Mutex.unlock pool.lock
    end
    else begin
      Mutex.unlock pool.lock;
      (* Dispatch latency: publish-to-first-helper-claim, recorded once
         per region by whoever wins the CAS. *)
      if b.b_published > 0.0 && Atomic.compare_and_set b.b_claimed 0 1 then
        Obs.observe m_queue_wait (Unix.gettimeofday () -. b.b_published);
      with_inside (fun () -> run_batch b ~worker:w)
    end;
    helper_loop pool

let shutdown pool =
  let doomed =
    Mutex.protect pool.lock (fun () ->
        pool.closed <- true;
        Condition.broadcast pool.work_cond;
        let ds = pool.domains in
        pool.domains <- [];
        pool.helper_count <- 0;
        ds)
  in
  List.iter Domain.join doomed

(* Grow the helper set towards [wanted] (capped), registering the at_exit
   join on the first spawn so no test run leaks a domain. *)
let ensure_helpers pool wanted =
  let wanted = min wanted max_helpers in
  if wanted > 0 then
    Mutex.protect pool.lock (fun () ->
        if not pool.closed then begin
          if not pool.exit_hooked then begin
            pool.exit_hooked <- true;
            at_exit (fun () -> shutdown pool)
          end;
          while pool.helper_count < wanted do
            pool.domains <-
              Domain.spawn (fun () -> helper_loop pool) :: pool.domains;
            pool.helper_count <- pool.helper_count + 1
          done
        end)

let enqueue pool b =
  Mutex.protect pool.lock (fun () ->
      if pool.closed then false
      else begin
        pool.queue <- pool.queue @ [ b ];
        Condition.broadcast pool.work_cond;
        true
      end)

let sequential_for ~body total =
  for i = 0 to total - 1 do
    body ~worker:0 i
  done

let parallel_for pool ~jobs ~body total =
  if total <= 0 then ()
  else if jobs <= 1 || total = 1 || inside () || pool.closed then
    sequential_for ~body total
  else begin
    ensure_helpers pool (min (jobs - 1) (total - 1));
    let tele = Obs.enabled () in
    let body =
      if not tele then body
      else fun ~worker i ->
        Obs.incr m_slots;
        if worker > 0 then Obs.incr m_steals;
        body ~worker i
    in
    let published_at = if tele then Unix.gettimeofday () else 0.0 in
    let b =
      {
        b_body = body;
        b_total = total;
        b_next = Atomic.make 0;
        b_workers = Atomic.make 0;
        b_max_workers = jobs;
        b_completed = Atomic.make 0;
        b_error = Atomic.make None;
        b_mutex = Mutex.create ();
        b_cond = Condition.create ();
        b_finished = false;
        b_published = published_at;
        b_claimed = Atomic.make 0;
      }
    in
    (* The caller claims participant id 0 before publishing, so it always
       works the batch itself — helpers only add throughput. *)
    let w = Atomic.fetch_and_add b.b_workers 1 in
    let published = enqueue pool b in
    with_inside (fun () -> run_batch b ~worker:w);
    if published then begin
      Mutex.lock b.b_mutex;
      while not b.b_finished do
        Condition.wait b.b_cond b.b_mutex
      done;
      Mutex.unlock b.b_mutex;
      Mutex.protect pool.lock (fun () -> remove_batch pool b)
    end;
    if tele then begin
      Obs.incr m_regions;
      Obs.observe m_region_seconds (Unix.gettimeofday () -. published_at)
    end;
    match Atomic.get b.b_error with Some exn -> raise exn | None -> ()
  end

let shared = lazy (create ())

let get () = Lazy.force shared
