type t = {
  source : Circuit.t;
  gates : Gate.t array;
  preds : int list array;
  succs : int list array;
}

(* Under the default predicate (no two gates sharing a qubit commute) the
   per-qubit frontier is a single gate: every new gate on qubit [q] blocks
   every later gate on [q], so an edge from the *previous* frontier gate is
   implied transitively through the new one.  Keeping only the last gate
   per qubit is therefore an exact transitive reduction — edge lists and
   build time are linear in the gate count instead of quadratic on deep
   per-qubit chains.

   A custom commutation predicate breaks that domination argument: a gate
   blocked by the newcomer can still conflict with a later gate that
   commutes with the newcomer (e.g. X then Z then Z on one qubit under
   diagonal commutation: Z blocks X, yet the second Z still needs the
   X edge because the two Z's commute).  So the commuting window keeps
   every gate seen on the qubit — correctness over compactness. *)
let build ?commute source =
  let gates = Array.of_list (Circuit.gates source) in
  let count = Array.length gates in
  let preds = Array.make count [] in
  let succs = Array.make count [] in
  let link j depends =
    List.iter
      (fun i ->
        preds.(j) <- i :: preds.(j);
        succs.(i) <- j :: succs.(i))
      depends
  in
  (match commute with
  | None ->
    (* last.(q) = the one frontier gate of qubit q (-1: none yet). *)
    let last = Array.make (Circuit.qubits source) (-1) in
    Array.iteri
      (fun j gate ->
        let depends = ref [] in
        List.iter
          (fun q ->
            let i = last.(q) in
            if i >= 0 && not (List.mem i !depends) then depends := i :: !depends)
          (Gate.qubits gate);
        link j !depends;
        List.iter (fun q -> last.(q) <- j) (Gate.qubits gate))
      gates
  | Some commute ->
    (* recent.(q) = commuting window of qubit q, newest first; a new gate
       depends on every listed gate it does not commute with.  Gates stay
       listed after blocking — they may still conflict with later gates
       that commute with their blocker. *)
    let recent = Array.make (Circuit.qubits source) [] in
    Array.iteri
      (fun j gate ->
        let depends = ref [] in
        List.iter
          (fun q ->
            List.iter
              (fun i ->
                if (not (List.mem i !depends)) && not (commute gates.(i) gate)
                then depends := i :: !depends)
              recent.(q))
          (Gate.qubits gate);
        link j !depends;
        List.iter (fun q -> recent.(q) <- j :: recent.(q)) (Gate.qubits gate))
      gates);
  { source; gates; preds; succs }

let size t = Array.length t.gates

let preds t i = t.preds.(i)

let succs t i = t.succs.(i)

let is_valid_order t order =
  let count = size t in
  List.length order = count
  && List.sort_uniq Int.compare order = Qcp_util.Listx.range count
  &&
  let position = Array.make count 0 in
  List.iteri (fun pos i -> position.(i) <- pos) order;
  let ok = ref true in
  for j = 0 to count - 1 do
    List.iter (fun i -> if position.(i) > position.(j) then ok := false) t.preds.(j)
  done;
  !ok

let reorder t order =
  if not (is_valid_order t order) then
    invalid_arg "Dag.reorder: not a valid linearization";
  Circuit.make ~qubits:(Circuit.qubits t.source)
    (List.map (fun i -> t.gates.(i)) order)

(* ------------------------------------------------------------------ *)
(* Streaming dependency frontier                                       *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  (* A pulled-but-unemitted gate.  [blockers] counts its unemitted
     predecessors; [waiters] are the pulled gates waiting on it.  Both
     link only *live* gates, so the stream's state is O(qubits + live)
     where live is whatever the consumer holds open (popped-but-unemitted
     gates plus the scan overhang past them) — never the full edge lists
     of {!build}. *)
  type node = {
    nd_idx : int;
    mutable nd_blockers : int;
    mutable nd_waiters : node list;
    mutable nd_emitted : bool;
  }

  type t = {
    s_gates : Gate.t array;
    s_commute : (Gate.t -> Gate.t -> bool) option;
    mutable s_cursor : int; (* next gate index not yet pulled *)
    s_last : node option array; (* default predicate: frontier per qubit *)
    s_window : node list array; (* custom predicate: commuting windows *)
    s_ready : Qcp_util.Iheap.t;
    s_nodes : (int, node) Hashtbl.t; (* live (pulled, unemitted) gates *)
    mutable s_emitted : int;
  }

  let create ?commute source =
    let gates = Array.of_list (Circuit.gates source) in
    let qubits = Circuit.qubits source in
    {
      s_gates = gates;
      s_commute = commute;
      s_cursor = 0;
      s_last = Array.make (Int.max 1 qubits) None;
      s_window = Array.make (Int.max 1 qubits) [];
      s_ready = Qcp_util.Iheap.create 64;
      s_nodes = Hashtbl.create 64;
      s_emitted = 0;
    }

  let emitted_count t = t.s_emitted
  let live t = Hashtbl.length t.s_nodes
  let gate t i = t.s_gates.(i)

  (* Pull the gate at the cursor into the live set, wiring its blocker
     count and waiter edges exactly as {!build} would wire its preds:
     the windows evolve in gate-index order, independent of emissions, so
     the dependency structure matches the offline DAG's. *)
  let pull t =
    let j = t.s_cursor in
    let gate = t.s_gates.(j) in
    t.s_cursor <- j + 1;
    let node = { nd_idx = j; nd_blockers = 0; nd_waiters = []; nd_emitted = false } in
    let counted = ref [] in
    let wait_on pred =
      if
        (not pred.nd_emitted)
        && not (List.exists (fun n -> n.nd_idx = pred.nd_idx) !counted)
      then begin
        counted := pred :: !counted;
        node.nd_blockers <- node.nd_blockers + 1;
        pred.nd_waiters <- node :: pred.nd_waiters
      end
    in
    (match t.s_commute with
    | None ->
      List.iter
        (fun q ->
          (match t.s_last.(q) with Some pred -> wait_on pred | None -> ());
          t.s_last.(q) <- Some node)
        (Gate.qubits gate)
    | Some commute ->
      List.iter
        (fun q ->
          List.iter
            (fun pred ->
              if not (commute t.s_gates.(pred.nd_idx) gate) then wait_on pred)
            t.s_window.(q);
          t.s_window.(q) <- node :: t.s_window.(q))
        (Gate.qubits gate));
    Hashtbl.add t.s_nodes j node;
    if node.nd_blockers = 0 then Qcp_util.Iheap.push t.s_ready j

  (* Smallest ready gate index.  The pool is refilled lazily: gates are
     pulled from the array only while no pulled gate is ready, so every
     pulled index is below the cursor and every unpulled one at or above
     it — the minimum over the pulled-ready pool is the minimum over the
     whole DAG's ready set, and the pop order is identical to running the
     offline heap over {!build}. *)
  let rec next t =
    if not (Qcp_util.Iheap.is_empty t.s_ready) then
      Some (Qcp_util.Iheap.pop t.s_ready)
    else if t.s_cursor < Array.length t.s_gates then begin
      pull t;
      next t
    end
    else None

  let emit t i =
    match Hashtbl.find_opt t.s_nodes i with
    | None -> invalid_arg "Dag.Stream.emit: gate is not live"
    | Some node ->
      if node.nd_emitted then invalid_arg "Dag.Stream.emit: gate already emitted";
      node.nd_emitted <- true;
      t.s_emitted <- t.s_emitted + 1;
      List.iter
        (fun waiter ->
          waiter.nd_blockers <- waiter.nd_blockers - 1;
          if waiter.nd_blockers = 0 then Qcp_util.Iheap.push t.s_ready waiter.nd_idx)
        node.nd_waiters;
      node.nd_waiters <- [];
      (* The record may linger in a frontier slot or commuting window, where
         the [nd_emitted] flag makes it inert; the live table drops it. *)
      Hashtbl.remove t.s_nodes i

  let requeue t i =
    if not (Hashtbl.mem t.s_nodes i) then
      invalid_arg "Dag.Stream.requeue: gate is not live";
    Qcp_util.Iheap.push t.s_ready i
end
