(* The pool's contract: results are a pure function of the input order
   (never of the steal interleaving), exceptions propagate to the caller,
   nested parallel regions serialize instead of deadlocking, and helper
   domains are spawned once and reused. *)

module Task_pool = Qcp_util.Task_pool

(* Deterministic per-slot busy work of wildly varying duration, so steal
   interleavings actually differ between runs and jobs values. *)
let burn i =
  let rounds = (i * 37 mod 97) * 50 in
  let acc = ref i in
  for k = 1 to rounds do
    acc := (!acc * 1103515245) + k
  done;
  !acc

let test_map_reduce_deterministic () =
  let pool = Task_pool.get () in
  let total = 200 in
  let map ~worker:_ i =
    ignore (burn i);
    i
  in
  (* Order-sensitive, non-commutative reduction: any deviation from the
     sequential fold order changes the result. *)
  let combine acc v = (acc * 31) + v in
  let expected =
    Task_pool.map_reduce pool ~jobs:0 ~map ~combine ~init:7 total
  in
  let seq = ref 7 in
  for i = 0 to total - 1 do
    seq := combine !seq i
  done;
  Alcotest.(check int) "jobs=0 equals plain fold" !seq expected;
  List.iter
    (fun jobs ->
      for round = 1 to 5 do
        let got = Task_pool.map_reduce pool ~jobs ~map ~combine ~init:7 total in
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d round %d" jobs round)
          expected got
      done)
    [ 2; 3; 4; 8 ]

let test_parallel_for_covers_all_slots () =
  let pool = Task_pool.get () in
  let total = 500 in
  List.iter
    (fun jobs ->
      let hits = Array.make total 0 in
      Task_pool.parallel_for pool ~jobs
        ~body:(fun ~worker:_ i ->
          ignore (burn i);
          hits.(i) <- hits.(i) + 1)
        total;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: every slot ran exactly once" jobs)
        true
        (Array.for_all (fun c -> c = 1) hits))
    [ 0; 1; 2; 4 ];
  (* Degenerate sizes. *)
  Task_pool.parallel_for pool ~jobs:4 ~body:(fun ~worker:_ _ -> ()) 0;
  Task_pool.parallel_for pool ~jobs:4 ~body:(fun ~worker:_ _ -> ()) 1

let test_worker_ids_dense_and_exclusive () =
  let pool = Task_pool.get () in
  let jobs = 4 in
  let total = 300 in
  let in_use = Array.init jobs (fun _ -> Atomic.make false) in
  let ok = Atomic.make true in
  Task_pool.parallel_for pool ~jobs
    ~body:(fun ~worker i ->
      if worker < 0 || worker >= jobs then Atomic.set ok false
      else begin
        (* A worker id never runs two slots concurrently, so per-id scratch
           (Domain.DLS in the placer, state slots in the enumerator) is
           race-free: re-entry on a busy id would trip this flag. *)
        if not (Atomic.compare_and_set in_use.(worker) false true) then
          Atomic.set ok false;
        ignore (burn i);
        Atomic.set in_use.(worker) false
      end)
    total;
  Alcotest.(check bool) "ids in range and mutually exclusive" true
    (Atomic.get ok)

exception Boom of int

let test_exception_propagation () =
  let pool = Task_pool.get () in
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      (match
         Task_pool.parallel_for pool ~jobs
           ~body:(fun ~worker:_ i ->
             Atomic.incr ran;
             if i = 37 then raise (Boom i))
           100
       with
      | () -> Alcotest.fail (Printf.sprintf "jobs=%d: expected Boom" jobs)
      | exception Boom 37 -> ());
      (* Every claimed slot still completes (faulted batches must not wedge
         the pool), and the pool remains usable afterwards. *)
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: some slots ran" jobs)
        true
        (Atomic.get ran > 0);
      let sum =
        Task_pool.map_reduce pool ~jobs
          ~map:(fun ~worker:_ i -> i)
          ~combine:( + ) ~init:0 10
      in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: pool usable after exception" jobs)
        45 sum)
    [ 0; 2; 4 ]

let test_both_results_and_exceptions () =
  let pool = Task_pool.get () in
  List.iter
    (fun jobs ->
      let a, b =
        Task_pool.both pool ~jobs (fun () -> burn 11) (fun () -> burn 23)
      in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: f result" jobs)
        (burn 11) a;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: g result" jobs)
        (burn 23) b;
      (match Task_pool.both pool ~jobs (fun () -> raise (Boom 1)) (fun () -> 2) with
      | _ -> Alcotest.fail "expected Boom from f"
      | exception Boom 1 -> ());
      (match Task_pool.both pool ~jobs (fun () -> 1) (fun () -> raise (Boom 2)) with
      | _ -> Alcotest.fail "expected Boom from g"
      | exception Boom 2 -> ());
      (* When both raise, f's exception takes precedence. *)
      match
        Task_pool.both pool ~jobs
          (fun () -> raise (Boom 1))
          (fun () -> raise (Boom 2))
      with
      | _ -> Alcotest.fail "expected Boom from f"
      | exception Boom 1 -> ())
    [ 0; 2 ]

let test_nested_use_serializes () =
  let pool = Task_pool.get () in
  (* A parallel region whose slots themselves enter parallel regions: the
     guard must run the inner ones inline (no deadlock on a starved pool)
     and the combined result must match the flat computation. *)
  let outer = 8 in
  let inner = 50 in
  let expected_row =
    let acc = ref 0 in
    for i = 0 to inner - 1 do
      acc := !acc + burn i
    done;
    !acc
  in
  (* Alcotest's checks are not domain-safe, so slots only compute and the
     checks run on the calling domain afterwards. *)
  let rows, both_ok =
    Task_pool.map_reduce pool ~jobs:4
      ~map:(fun ~worker:_ _ ->
        let nested_in_task =
          Task_pool.map_reduce pool ~jobs:4
            ~map:(fun ~worker:_ i -> burn i)
            ~combine:( + ) ~init:0 inner
        in
        let nested_both =
          Task_pool.both pool ~jobs:2 (fun () -> burn 3) (fun () -> burn 5)
        in
        (nested_in_task, nested_both = (burn 3, burn 5)))
      ~combine:(fun (r, ok) (r', ok') -> (r + r', ok && ok'))
      ~init:(0, true) outer
  in
  Alcotest.(check bool) "nested both computes both sides" true both_ok;
  Alcotest.(check int) "nested regions compute correctly"
    (outer * expected_row) rows

let test_pool_persistent_helpers () =
  let pool = Task_pool.create () in
  Alcotest.(check int) "no helpers before first use" 0 (Task_pool.helpers pool);
  let run () =
    Task_pool.map_reduce pool ~jobs:3
      ~map:(fun ~worker:_ i -> burn i)
      ~combine:( + ) ~init:0 64
  in
  let first = run () in
  Alcotest.(check int) "helpers spawned on demand" 2 (Task_pool.helpers pool);
  for _ = 1 to 10 do
    Alcotest.(check int) "reused pool, same result" first (run ())
  done;
  Alcotest.(check int) "helpers reused, not respawned" 2
    (Task_pool.helpers pool);
  Task_pool.shutdown pool;
  Alcotest.(check int) "helpers joined" 0 (Task_pool.helpers pool);
  (* A shut-down pool degrades to sequential inline execution. *)
  Alcotest.(check int) "sequential after shutdown" first (run ());
  Task_pool.shutdown pool

let test_env_jobs_parse () =
  (* The variable is read once and memoized; this only pins the parse of
     whatever the harness environment says (unset/invalid -> 0). *)
  let expected =
    match Sys.getenv_opt "QCP_JOBS" with
    | None -> 0
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> 0)
  in
  Alcotest.(check int) "env_jobs matches QCP_JOBS" expected
    (Task_pool.env_jobs ())

let suite =
  [
    Alcotest.test_case "map_reduce deterministic under stealing" `Quick
      test_map_reduce_deterministic;
    Alcotest.test_case "parallel_for covers every slot once" `Quick
      test_parallel_for_covers_all_slots;
    Alcotest.test_case "worker ids dense and exclusive" `Quick
      test_worker_ids_dense_and_exclusive;
    Alcotest.test_case "exceptions propagate, pool survives" `Quick
      test_exception_propagation;
    Alcotest.test_case "both: results and exception precedence" `Quick
      test_both_results_and_exceptions;
    Alcotest.test_case "nested use serializes without deadlock" `Quick
      test_nested_use_serializes;
    Alcotest.test_case "helpers spawn once and are reused" `Quick
      test_pool_persistent_helpers;
    Alcotest.test_case "env_jobs parses QCP_JOBS" `Quick test_env_jobs_parse;
  ]
