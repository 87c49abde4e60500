module Graph = Qcp_graph.Graph
module Monomorph = Qcp_graph.Monomorph
module Circuit = Qcp_circuit.Circuit
module Gate = Qcp_circuit.Gate
module Dag = Qcp_circuit.Dag

let pattern = Circuit.interaction_graph

(* Alignability oracle of the splitter: the workspace's interaction pattern grows one pair at a time, and every
   query asks whether the pattern extended with one more pair still embeds
   into the fast-interaction graph.  The state bundles the incremental
   monomorphism engine with four accelerations that never change an
   answer: a witness shortcut (one concrete embedding, extended in
   O(degree) when it covers the new pair), degree exclusion against the
   target's maximum degree, an exact union-find decision procedure on
   path targets, and odd-cycle refutation by the same (parity) union-find
   on bipartite targets.  Fields are documented in the interface. *)
type oracle = {
  o_extends : int * int -> bool;
  o_admit : int * int -> unit;
  o_reset : unit -> unit;
  o_witness : unit -> int array option;
}

type counters = {
  mutable calls : int;
  mutable nodes : int;
  mutable exhausted : int;
}

let counters () = { calls = 0; nodes = 0; exhausted = 0 }

let make_oracle ?(counters = counters ()) ?budget ~adjacency ~qubits () =
  let inc = Monomorph.Incremental.create ~qubits ~target:adjacency in
  (* Charged once per search, after it returns: the search loop itself
     never touches a counter. *)
  let search pair =
    let found = Monomorph.Incremental.embeds_with ?budget inc pair in
    counters.nodes <- counters.nodes + Monomorph.Incremental.last_nodes inc;
    if Monomorph.Incremental.last_exhausted inc then
      counters.exhausted <- counters.exhausted + 1;
    found
  in
  let pdeg q = Monomorph.Incremental.degree inc q in
  (* Witness shortcut: remember one concrete monomorphism of the current
     pair set (plus its occupied-vertex mask).  A new pair whose endpoints
     the witness already maps to an adjacent vertex pair is embeddable by
     that same witness; a pair with exactly one mapped endpoint can often be
     absorbed by assigning the other endpoint a free neighbor of the mapped
     image.  Both answer yes constructively, in O(degree), without building
     a pattern graph or searching; when neither applies we fall back to the
     full search, so answers never differ from the plain oracle's.  Counted
     as an oracle call either way -- the shortcut changes the cost of a
     query, never its answer. *)
  let witness = ref None in
  let witness_covers (a, b) =
    match !witness with
    | None -> false
    | Some (m, taken) ->
      let claim q v =
        m.(q) <- v;
        taken.(v) <- true;
        true
      in
      let absorb unmapped mapped =
        Array.exists
          (fun v -> (not taken.(v)) && claim unmapped v)
          (Graph.neighbors adjacency m.(mapped))
      in
      if m.(a) >= 0 then
        if m.(b) >= 0 then Graph.mem_edge adjacency m.(a) m.(b)
        else absorb b a
      else if m.(b) >= 0 then absorb a b
      else
        (* Both endpoints new: any free adjacent vertex pair hosts them. *)
        let rec scan v =
          if v >= Graph.n adjacency then false
          else if
            (not taken.(v))
            && Array.exists
                 (fun u -> (not taken.(u)) && claim a v && claim b u)
                 (Graph.neighbors adjacency v)
          then true
          else scan (v + 1)
        in
        scan 0
  in
  (* Degree exclusion: a pattern vertex of degree d needs a target vertex of
     degree >= d, so exceeding the target's maximum degree refutes
     embeddability without a search (the common case when a stage closes). *)
  let max_deg = Graph.max_degree adjacency in
  (* On a path target the oracle is decidable exactly without any search: a
     degree-bounded pattern embeds into an n-vertex path iff every component
     is a simple path (acyclic given degrees <= 2) and at most n vertices
     are used.  Components and the used-vertex count are maintained
     incrementally with a union-find over the pattern qubits. *)
  let target_is_path =
    let n = Graph.n adjacency in
    Graph.edge_count adjacency = n - 1
    && max_deg <= 2
    && Qcp_graph.Paths.is_connected adjacency
  in
  (* Odd-cycle refutation: a monomorphism maps an odd cycle onto an odd
     cycle, so on a bipartite target a pair closing an odd cycle in the
     pattern is refused without a search -- a search that could only have
     answered "no".  The union-find is a parity union-find for this:
     [par.(q)] is q's side relative to [uf.(q)] (0 = same, 1 = opposite;
     always 0 at a root), so after [find q] it is q's side relative to
     its root. *)
  let bipartite = Qcp_graph.Paths.is_bipartite adjacency in
  let uf = Array.init qubits (fun q -> q) in
  let par = Array.make qubits 0 in
  let rec find q =
    let p = uf.(q) in
    if p = q then q
    else begin
      let root = find p in
      par.(q) <- par.(q) lxor par.(p);
      uf.(q) <- root;
      root
    end
  in
  let closes_odd_cycle (a, b) =
    let ra = find a in
    let rb = find b in
    ra = rb && par.(a) = par.(b)
  in
  let used = ref 0 in
  let admit ((a, b) as pair) =
    if pdeg a = 0 then incr used;
    if pdeg b = 0 then incr used;
    Monomorph.Incremental.add inc pair;
    let ra = find a in
    let rb = find b in
    if ra <> rb then begin
      uf.(ra) <- rb;
      par.(ra) <- par.(a) lxor par.(b) lxor 1
    end
  in
  let extends ((a, b) as pair) =
    counters.calls <- counters.calls + 1;
    witness_covers pair
    || (pdeg a < max_deg && pdeg b < max_deg)
       &&
       if target_is_path then
         find a <> find b
         && !used
            + (if pdeg a = 0 then 1 else 0)
            + (if pdeg b = 0 then 1 else 0)
            <= Graph.n adjacency
       else
         (not (bipartite && closes_odd_cycle pair))
         &&
         match search pair with
         | Some m ->
           let taken = Array.make (Graph.n adjacency) false in
           Array.iter (fun v -> if v >= 0 then taken.(v) <- true) m;
           witness := Some (m, taken);
           true
         | None -> false
  in
  let reset () =
    witness := None;
    Monomorph.Incremental.reset inc;
    Array.iteri (fun q _ -> uf.(q) <- q) uf;
    Array.fill par 0 qubits 0;
    used := 0
  in
  let witness_copy () =
    match !witness with None -> None | Some (m, _) -> Some (Array.copy m)
  in
  {
    o_extends = extends;
    o_admit = admit;
    o_reset = reset;
    o_witness = witness_copy;
  }

(* Subcircuit formation: stream gates out of the dependency DAG
   smallest-ready-index first, deferring gates whose interaction pair the
   oracle refuses instead of closing the stage immediately.  Independent
   gates slide past a refused pair, packing stages fuller; once [window]
   gates are deferred the stage closes and the deferred gates re-enter the
   ready queue against the fresh pattern.  With [window = 1] the first
   refused gate closes the stage, so nothing slides past it: that is the
   paper's greedy maximal-prefix split over the written gate order.  The
   oracle is consulted only when a gate introduces a *new* interaction
   pair, so the number of oracle calls is bounded by the number of
   distinct pairs per stage, not by the gate count.  The emitted order is a valid DAG linearization — and
   under the default commutation predicate (only disjoint-qubit gates
   commute) every per-qubit gate subsequence is exactly the source
   circuit's, so the concatenated stages are unitarily identical to the
   input.  Workspace growth per stage is O(window) deferred gates on top of
   the pattern itself; nothing ever materializes whole-circuit levels.

   A pair refused against the current pattern stays refused for the rest of
   the stage (the pattern only grows), so deferred gates are not retried
   until a close resets the pattern.  A pair refused by an *empty* pattern
   is unembeddable on its own, the one fatal case: the one-pair search either finds a witness among the first edges it
   touches or exhausts a tiny space, so [budget] cannot turn an embeddable
   singleton into an error.

   Stage formation rides {!Dag.Stream}: the dependency frontier is pulled
   lazily out of the gate array (O(qubits + live) state, never the offline
   DAG's edge lists), and each closed stage is handed to the [stage] fold
   immediately, so a spilling consumer never holds more than the stage in
   flight.  The stream's pop order equals the offline heap's (gates are
   pulled only while nothing pulled is ready), so stage boundaries are
   identical to {!split_windowed}'s. *)
let fold_windowed ?counters ?(budget = 10_000) ~window ~adjacency ~init
    ~stage circuit =
  let qubits = Circuit.qubits circuit in
  let window = Int.max 1 window in
  let o = make_oracle ?counters ~budget ~adjacency ~qubits () in
  let stream = Dag.Stream.create circuit in
  let emitted = ref [] in
  let acc = ref init in
  let pair_set = Hashtbl.create 64 in
  let deferred = ref [] in
  let ndeferred = ref 0 in
  let error = ref None in
  let emit i =
    emitted := Dag.Stream.gate stream i :: !emitted;
    Dag.Stream.emit stream i
  in
  let close () =
    if !emitted <> [] then begin
      acc := stage !acc (Circuit.make ~qubits (List.rev !emitted), o.o_witness ());
      emitted := [];
      o.o_reset ();
      Hashtbl.reset pair_set
    end;
    (* Deferred gates become eligible again against the fresh pattern. *)
    List.iter (fun i -> Dag.Stream.requeue stream i) !deferred;
    deferred := [];
    ndeferred := 0
  in
  let running = ref true in
  while !error = None && !running do
    match Dag.Stream.next stream with
    | None -> if !ndeferred > 0 then close () else running := false
    | Some i -> (
      match Gate.qubits (Dag.Stream.gate stream i) with
      | [ _ ] -> emit i
      | [ a; b ] ->
        let pair = (Int.min a b, Int.max a b) in
        if Hashtbl.mem pair_set pair then emit i
        else if o.o_extends pair then begin
          o.o_admit pair;
          Hashtbl.replace pair_set pair ();
          emit i
        end
        else if Hashtbl.length pair_set = 0 then
          error :=
            Some
              (Printf.sprintf
                 "interaction %s cannot be aligned with any fast interaction"
                 (Gate.name (Dag.Stream.gate stream i)))
        else begin
          deferred := i :: !deferred;
          incr ndeferred;
          if !ndeferred >= window then close ()
        end
      | _ -> assert false)
  done;
  match !error with
  | Some msg -> Error msg
  | None ->
    close ();
    Ok !acc

let split_windowed ?counters ?budget ~window ~adjacency circuit =
  Result.map List.rev
    (fold_windowed ?counters ?budget ~window ~adjacency ~init:[]
       ~stage:(fun acc s -> s :: acc)
       circuit)
