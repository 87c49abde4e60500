(* Property suite pinning {!Dag.Stream} to {!Dag.build}: the streaming
   frontier must pop gates in exactly the order an offline min-heap over
   the materialized DAG's ready sets would, produce valid linearizations,
   and agree with an unpruned reference builder on ready dynamics and
   critical path — the default-predicate frontier pruning is a transitive
   reduction, never a semantic change. *)

module Dag = Qcp_circuit.Dag
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Transform = Qcp_circuit.Transform
module Rng = Qcp_util.Rng

let random_circuit rng ~n ~gates =
  Circuit.make ~qubits:n
    (List.init gates (fun _ ->
         match Rng.int rng 5 with
         | 0 -> Gate.h (Rng.int rng n)
         | 1 -> Gate.rz (Rng.int rng n) (Rng.float rng 6.28)
         | 2 | 3 ->
           let a = Rng.int rng n in
           let b = (a + 1 + Rng.int rng (n - 1)) mod n in
           Gate.cnot a b
         | _ ->
           let a = Rng.int rng n in
           let b = (a + 1 + Rng.int rng (n - 1)) mod n in
           Gate.zz a b (Rng.float rng 3.14)))

(* Offline reference: run a smallest-index-first ready pool over the
   materialized DAG's edge lists.  O(count^2) selection is fine at test
   sizes and keeps the reference independent of any heap code shared with
   the implementation under test. *)
let reference_order dag =
  let count = Dag.size dag in
  let indeg = Array.make count 0 in
  for j = 0 to count - 1 do
    indeg.(j) <- List.length (Dag.preds dag j)
  done;
  let emitted = Array.make count false in
  let order = ref [] in
  for _ = 1 to count do
    let next = ref (-1) in
    for j = count - 1 downto 0 do
      if (not emitted.(j)) && indeg.(j) = 0 then next := j
    done;
    assert (!next >= 0);
    emitted.(!next) <- true;
    order := !next :: !order;
    List.iter (fun s -> indeg.(s) <- indeg.(s) - 1) (Dag.succs dag !next)
  done;
  List.rev !order

(* Drain the stream emitting every popped gate immediately. *)
let stream_order ?commute circuit =
  let stream = Dag.Stream.create ?commute circuit in
  let order = ref [] in
  let rec drain () =
    match Dag.Stream.next stream with
    | None -> ()
    | Some i ->
      order := i :: !order;
      Dag.Stream.emit stream i;
      drain ()
  in
  drain ();
  (List.rev !order, stream)

(* Unpruned reference builder: under the default predicate every earlier
   gate sharing a qubit is a dependency (the full append window, no
   frontier pruning) — the edge set {!Dag.build} is a transitive
   reduction of. *)
let unpruned_preds circuit =
  let gates = Array.of_list (Circuit.gates circuit) in
  let count = Array.length gates in
  let preds = Array.make count [] in
  Array.iteri
    (fun j gate ->
      let qs = Gate.qubits gate in
      for i = 0 to j - 1 do
        if List.exists (fun q -> List.mem q (Gate.qubits gates.(i))) qs then
          preds.(j) <- i :: preds.(j)
      done)
    gates;
  preds

let check_one ?commute ~seed circuit =
  let dag = Dag.build ?commute circuit in
  let expected = reference_order dag in
  let got, stream = stream_order ?commute circuit in
  Alcotest.(check (list int))
    (Printf.sprintf "seed %d: stream order = offline heap order" seed)
    expected got;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: everything emitted" seed)
    (Dag.size dag)
    (Dag.Stream.emitted_count stream);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: nothing left live" seed)
    0
    (Dag.Stream.live stream);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: valid linearization" seed)
    true (Dag.is_valid_order dag got)

let test_stream_matches_build () =
  for seed = 0 to 34 do
    let rng = Rng.create seed in
    let n = 3 + (seed mod 5) in
    let gates = 20 + (seed mod 30) in
    check_one ~seed (random_circuit rng ~n ~gates)
  done

let test_stream_matches_build_commute () =
  for seed = 0 to 34 do
    let rng = Rng.create (1000 + seed) in
    let n = 3 + (seed mod 5) in
    let gates = 20 + (seed mod 30) in
    check_one ~commute:Transform.commutes ~seed
      (random_circuit rng ~n ~gates)
  done

(* The pruned default build must have identical ready dynamics to the
   unpruned closure: same reference pop order, and the same critical path
   (finish clocks are invariant under transitive reduction). *)
let test_pruned_build_matches_unpruned () =
  for seed = 0 to 29 do
    let rng = Rng.create (2000 + seed) in
    let n = 3 + (seed mod 5) in
    let circuit = random_circuit rng ~n ~gates:25 in
    let dag = Dag.build circuit in
    let full = unpruned_preds circuit in
    let count = Dag.size dag in
    (* Reference order over the *unpruned* edges. *)
    let indeg = Array.map List.length full in
    let succs = Array.make count [] in
    Array.iteri
      (fun j ps -> List.iter (fun i -> succs.(i) <- j :: succs.(i)) ps)
      full;
    let emitted = Array.make count false in
    let order = ref [] in
    for _ = 1 to count do
      let next = ref (-1) in
      for j = count - 1 downto 0 do
        if (not emitted.(j)) && indeg.(j) = 0 then next := j
      done;
      emitted.(!next) <- true;
      order := !next :: !order;
      List.iter (fun s -> indeg.(s) <- indeg.(s) - 1) succs.(!next)
    done;
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: pruned ready order = unpruned" seed)
      (List.rev !order) (reference_order dag)
  done

(* Requeue: a popped-but-refused gate re-enters the pool and is popped
   again before anything larger. *)
let test_requeue () =
  let circuit =
    Circuit.make ~qubits:2 [ Gate.h 0; Gate.h 1; Gate.cnot 0 1 ]
  in
  let stream = Dag.Stream.create circuit in
  (match Dag.Stream.next stream with
  | Some 0 -> Dag.Stream.requeue stream 0
  | _ -> Alcotest.fail "expected gate 0 first");
  (match Dag.Stream.next stream with
  | Some 0 -> Dag.Stream.emit stream 0
  | _ -> Alcotest.fail "requeued gate must come back first");
  (match Dag.Stream.next stream with
  | Some 1 -> Dag.Stream.emit stream 1
  | _ -> Alcotest.fail "expected gate 1");
  (match Dag.Stream.next stream with
  | Some 2 -> Dag.Stream.emit stream 2
  | _ -> Alcotest.fail "expected gate 2");
  Alcotest.(check bool)
    "stream drained" true
    (Dag.Stream.next stream = None)

(* Misuse raises instead of corrupting state. *)
let test_stream_errors () =
  let circuit = Circuit.make ~qubits:1 [ Gate.h 0; Gate.h 0 ] in
  let stream = Dag.Stream.create circuit in
  Alcotest.check_raises "emit of unpopped-but-live gate's successor"
    (Invalid_argument "Dag.Stream.emit: gate is not live")
    (fun () -> Dag.Stream.emit stream 1);
  (match Dag.Stream.next stream with
  | Some 0 -> Dag.Stream.emit stream 0
  | _ -> Alcotest.fail "expected gate 0");
  Alcotest.check_raises "double emit"
    (Invalid_argument "Dag.Stream.emit: gate is not live")
    (fun () -> Dag.Stream.emit stream 0);
  Alcotest.check_raises "requeue of emitted gate"
    (Invalid_argument "Dag.Stream.requeue: gate is not live")
    (fun () -> Dag.Stream.requeue stream 0)

(* The O(qubits + live) claim, observed: draining a deep single-qubit
   chain with immediate emission never holds more than a constant number
   of gates live, however long the chain. *)
let test_live_set_bounded_on_chain () =
  let gates = 2000 in
  let circuit = Circuit.make ~qubits:1 (List.init gates (fun _ -> Gate.h 0)) in
  let stream = Dag.Stream.create circuit in
  let max_live = ref 0 in
  let rec drain () =
    match Dag.Stream.next stream with
    | None -> ()
    | Some i ->
      max_live := Int.max !max_live (Dag.Stream.live stream);
      Dag.Stream.emit stream i;
      drain ()
  in
  drain ();
  Alcotest.(check int) "everything emitted" gates
    (Dag.Stream.emitted_count stream);
  Alcotest.(check bool)
    (Printf.sprintf "live set stayed constant (max %d)" !max_live)
    true (!max_live <= 2)

let suite =
  [
    Alcotest.test_case "stream matches build (default)" `Quick
      test_stream_matches_build;
    Alcotest.test_case "stream matches build (commute-aware)" `Quick
      test_stream_matches_build_commute;
    Alcotest.test_case "pruned build matches unpruned closure" `Quick
      test_pruned_build_matches_unpruned;
    Alcotest.test_case "requeue returns the gate first" `Quick test_requeue;
    Alcotest.test_case "stream misuse raises" `Quick test_stream_errors;
    Alcotest.test_case "live set bounded on a chain" `Quick
      test_live_set_bounded_on_chain;
  ]
