module Graph = Qcp_graph.Graph
module Paths = Qcp_graph.Paths
module Timing = Qcp_circuit.Timing
module Environment = Qcp_env.Environment
module Perm = Qcp_route.Perm
module Telemetry = Qcp_obs.Metrics

(* The cost of moving a token along the adjacency graph by SWAPs, for the
   routing-free swap-displacement bound (DESIGN §9).  Edge [(u, v)] costs
   one capped SWAP at its cheaper orientation,
   [min (delay u v) (delay v u) *. min reuse_cap 3]: every maximal same-pair
   swap run costs at least that while moving a token at most one edge, so
   a token displaced from [src] to [dst] cannot reach [dst] before
   [start.(src)] plus the cheapest such path. *)
type swap_metric =
  | Uniform of float
      (* Every adjacency edge costs this step (grids, chains, heavy-hex):
         the distance is exactly hops times the step, read off the BFS
         table, so no second m x m table is built. *)
  | Weighted of float array array Lazy.t
      (* All-pairs weighted shortest paths ({!Paths.all_pairs_weighted}),
         built on first use. *)

let swap_metric options env adjacency =
  let weights = Environment.weights env in
  let capped_swap =
    match options.Options.reuse_cap with
    | None -> 3.0
    | Some cap -> Float.min cap 3.0
  in
  let cost u v = Float.min weights.(u).(v) weights.(v).(u) *. capped_swap in
  let cheapest, dearest =
    List.fold_left
      (fun (lo, hi) (u, v) ->
        let c = cost u v in
        (Float.min lo c, Float.max hi c))
      (infinity, 0.0) (Graph.edges adjacency)
  in
  if dearest <= cheapest then Uniform cheapest
  else Weighted (lazy (Paths.all_pairs_weighted ~cost adjacency))

(* [swap_arrival ~weighted ~step ~hops ~table t src dst] is the clock a
   token displaced from [src] (start clock [t]) to [dst <> src] lifts [dst]
   to ([neg_infinity]: no lift), over a metric resolved once per caller:
   [weighted] reads the forced weighted [table], otherwise [step] times
   the BFS [hops].  A weighted distance is a float sum in Dijkstra's order
   while the swap stage sums its delays gate by gate, so a weighted lift
   is shaded down by 2^-40 of itself -- far above any rounding gap, far
   below any delay -- so that rounding never puts it above a clock the
   swap stage really reaches.  Inlined, so the scoring loop boxes no
   float. *)
let[@inline] swap_arrival ~weighted ~step ~hops ~table t src dst =
  if weighted then
    let t = t +. table.(src).(dst) in
    t -. (t *. 0x1p-40)
  else
    let d = hops.(src).(dst) in
    if d > 0 then t +. (float_of_int d *. step) else neg_infinity

let bfs_table adjacency =
  Array.init (Graph.n adjacency) (fun v -> Paths.bfs_dist adjacency v)

let swap_lift options env adjacency =
  let metric = swap_metric options env adjacency in
  let hops = lazy (bfs_table adjacency) in
  fun ~start src dst ->
    if src = dst then neg_infinity
    else
      match metric with
      | Uniform step ->
        swap_arrival ~weighted:false ~step ~hops:(Lazy.force hops) ~table:[||]
          start.(src) src dst
      | Weighted table ->
        swap_arrival ~weighted:true ~step:0.0 ~hops:[||]
          ~table:(Lazy.force table) start.(src) src dst

type t = {
  n : int; (* circuit qubits *)
  m : int; (* environment size *)
  model : Timing.model;
  reuse_cap : float option;
  weights : Timing.weights;
  hops : int array array Lazy.t; (* all-pairs BFS distances *)
  swap : swap_metric;
  reference : bool;
  scored : Telemetry.counter;
  early_exits : Telemetry.counter;
  route : Perm.t -> Score_cache.route_entry;
}

let create ?(reference = false) options env adjacency ~n ~scored ~early_exits
    ~route =
  {
    n;
    m = Environment.size env;
    model = options.Options.model;
    reuse_cap = options.Options.reuse_cap;
    weights = Environment.weights env;
    hops = lazy (bfs_table adjacency);
    swap = swap_metric options env adjacency;
    reference;
    scored;
    early_exits;
    route;
  }

let with_route t route = { t with route }

let force t =
  ignore (Lazy.force t.hops : int array array);
  match t.swap with
  | Weighted table -> ignore (Lazy.force table : float array array)
  | Uniform _ -> ()

(* The cutoff a bounded evaluation actually applies: [infinity] in the
   exhaustive reference run. *)
let cutoff_of t cutoff = if t.reference then infinity else cutoff

(* ------------------------------------------------------------------ *)
(* Lanes: per-domain buffers                                           *)
(* ------------------------------------------------------------------ *)

(* The timing scratch, and the buffers each candidate's completion and
   connecting permutation are built in.  Taken and held vertices are
   stamps (equal to [l_gen] / [l_sgen] when set), so nothing is cleared
   between candidates.  A domain runs one sweep slot at a time and a slot
   finishes with its lane before the next refills it. *)
type lane = {
  l_scratch : Timing.scratch;
  mutable l_next : int array; (* a completion's placement (n used) *)
  mutable l_perm : int array;
      (* The connecting permutation, exactly [m] long: a route-table key. *)
  mutable l_target : int array; (* [= l_gen]: taken by the next placement *)
  mutable l_source : int array; (* [= l_sgen]: held by the previous one *)
  mutable l_gen : int;
  mutable l_sgen : int;
  l_lifted : float array; (* [| largest lift of the last {!connect} |] *)
}

let lane_key =
  Domain.DLS.new_key (fun () ->
      { l_scratch = Timing.make_scratch (); l_next = [||]; l_perm = [||];
        l_target = [||]; l_source = [||]; l_gen = 0; l_sgen = 0;
        l_lifted = [| 0.0 |] })

(* Fresh stamp arrays hold 0, below every generation handed out. *)
let lane t =
  let lane = Domain.DLS.get lane_key in
  if Array.length lane.l_next < t.n then lane.l_next <- Array.make t.n (-1);
  if Array.length lane.l_perm <> t.m then lane.l_perm <- Array.make t.m 0;
  if Array.length lane.l_target < t.m then begin
    lane.l_target <- Array.make t.m 0;
    lane.l_source <- Array.make t.m 0
  end;
  lane

let scratch lane = lane.l_scratch

let next lane = lane.l_next

let perm lane = lane.l_perm

let lifted lane = lane.l_lifted.(0)

let mark_sources t lane previous =
  let sgen = lane.l_sgen + 1 in
  lane.l_sgen <- sgen;
  for q = 0 to t.n - 1 do
    lane.l_source.(previous.(q)) <- sgen
  done

let mark_targets t lane placement =
  let gen = lane.l_gen + 1 in
  lane.l_gen <- gen;
  for q = 0 to t.n - 1 do
    lane.l_target.(placement.(q)) <- gen
  done

let complete t lane ~previous mapping =
  let gen = lane.l_gen + 1 in
  lane.l_gen <- gen;
  let next = lane.l_next and target = lane.l_target in
  let len = Array.length mapping in
  for q = 0 to len - 1 do
    let v = mapping.(q) in
    if v >= 0 then begin
      next.(q) <- v;
      target.(v) <- gen
    end
  done;
  (* Previous vertices are distinct, so no inactive qubit can take another
     one's: the order of this pass does not matter. *)
  let displaced = ref false in
  for q = 0 to t.n - 1 do
    if q >= len || mapping.(q) < 0 then begin
      let p = previous.(q) in
      if target.(p) <> gen then begin
        next.(q) <- p;
        target.(p) <- gen
      end
      else begin
        next.(q) <- -1;
        displaced := true
      end
    end
  done;
  if !displaced then begin
    let hops = Lazy.force t.hops in
    for q = 0 to t.n - 1 do
      if next.(q) < 0 then begin
        let dist = hops.(previous.(q)) in
        let best = ref (-1) and best_d = ref max_int in
        for v = 0 to t.m - 1 do
          if target.(v) <> gen then begin
            let d = if dist.(v) < 0 then max_int else dist.(v) in
            if !best < 0 || d < !best_d then begin
              best := v;
              best_d := d
            end
          end
        done;
        assert (!best >= 0);
        next.(q) <- !best;
        target.(!best) <- gen
      end
    done
  end

let connect t lane ~previous ~next ~start ~pos =
  let perm = lane.l_perm and target = lane.l_target and source = lane.l_source in
  let clocks = Timing.clocks lane.l_scratch in
  let gen = lane.l_gen and sgen = lane.l_sgen in
  let weighted = match t.swap with Weighted _ -> true | Uniform _ -> false in
  let step = match t.swap with Uniform step -> step | Weighted _ -> 0.0 in
  let table =
    match t.swap with Weighted table -> Lazy.force table | Uniform _ -> [||]
  in
  let hops = if weighted then [||] else Lazy.force t.hops in
  let lifted = ref 0.0 in
  let identity = ref true in
  for q = 0 to t.n - 1 do
    let src = previous.(q) and dst = next.(q) in
    perm.(src) <- dst;
    if src <> dst then begin
      identity := false;
      let a = swap_arrival ~weighted ~step ~hops ~table start.(pos + src) src dst in
      if a > clocks.(dst) then clocks.(dst) <- a;
      if a > !lifted then lifted := a
    end
  done;
  (* With every qubit in place the targets are the sources, so every
     other vertex is fixed and the permutation is the identity. *)
  if not !identity then begin
    let free = ref 0 in
    for v = 0 to t.m - 1 do
      if source.(v) <> sgen then
        if target.(v) <> gen then perm.(v) <- v
        else begin
          while source.(!free) <> sgen || target.(!free) = gen do
            incr free
          done;
          let dst = !free in
          perm.(v) <- dst;
          incr free;
          let a = swap_arrival ~weighted ~step ~hops ~table start.(pos + v) v dst in
          if a > clocks.(dst) then clocks.(dst) <- a;
          if a > !lifted then lifted := a
        end
    done
  end;
  lane.l_lifted.(0) <- !lifted;
  !identity

(* ------------------------------------------------------------------ *)
(* Scoring                                                             *)
(* ------------------------------------------------------------------ *)

let advance t scratch ~cutoff place stage =
  Timing.stage_advance ~model:t.model ~reuse_cap:t.reuse_cap ~cutoff
    ~weights:t.weights ~place scratch stage

let advance_swaps t scratch ~cutoff swaps =
  Timing.stage_advance_swaps ~model:t.model ~reuse_cap:t.reuse_cap ~cutoff
    ~weights:t.weights scratch swaps

(* Time [next] (its sources and targets marked) from the start clocks
   [start] at [pos]: the connecting SWAP stage from [previous], unless it
   is the identity, then [stage].  A finite [cutoff] is threaded into the
   timing sweeps, which abort -- returning [false] here -- as soon as any
   physical clock strictly exceeds it (sound because the ASAP clocks are
   monotone nondecreasing; see {!Timing.stage_advance}); on [true] the
   lane's scratch holds the exact finish clocks.

   When the candidate needs a (non-identity) connecting SWAP stage, a
   bounded evaluation first times the subcircuit *alone* under the cutoff,
   from the previous clocks lifted by the swap-displacement bound (each
   displaced token's destination clock rises to at least its start clock
   plus its SWAP distance, {!connect}) -- a routing-free admissible lower
   bound: the swap stage raises each start clock by at least the lift, and
   the recurrence is monotone in its start clocks, so the real score is at
   least this makespan.  An abort there refutes the candidate before the
   router ever runs; candidates at or below the cutoff are never refuted
   (their lifted clocks cannot exceed it), so the argmin tie-break is
   unaffected.  Callers that already compared that bound against the
   cutoff pass [~prebound:false] to skip the redundant sweep.  Every float
   argument is passed through already boxed, so a call that hits the
   route table allocates nothing. *)
let score_connected t lane ~cutoff ~prebound ~previous ~start ~pos ~next stage =
  let scratch = lane.l_scratch in
  Timing.stage_load scratch start ~pos ~len:t.m;
  match previous with
  | None -> advance t scratch ~cutoff next stage
  | Some previous ->
    if connect t lane ~previous ~next ~start ~pos then
      advance t scratch ~cutoff next stage
    else if
      cutoff < infinity && prebound
      (* A lifted clock above the cutoff already refutes the candidate
         even if no gate ever touches that vertex. *)
      && (lane.l_lifted.(0) > cutoff || not (advance t scratch ~cutoff next stage))
    then false
    else begin
      let entry = t.route lane.l_perm in
      Timing.stage_load scratch start ~pos ~len:t.m;
      advance_swaps t scratch ~cutoff entry && advance t scratch ~cutoff next stage
    end

let score_makespan ?(cutoff = infinity) ?(prebound = true) t lane ~phys_start
    ~prev ~stage placement =
  Telemetry.incr t.scored;
  (match prev with
  | Some previous ->
    mark_sources t lane previous;
    mark_targets t lane placement
  | None -> ());
  if
    score_connected t lane ~cutoff:(cutoff_of t cutoff) ~prebound
      ~previous:prev ~start:phys_start ~pos:0 ~next:placement stage
  then Timing.stage_makespan lane.l_scratch
  else begin
    Telemetry.incr t.early_exits;
    infinity
  end

let candidate_bound t lane ~phys_start ~prev ~stage placement =
  let scratch = lane.l_scratch in
  Timing.stage_start scratch phys_start;
  (match prev with
  | None -> ()
  | Some previous ->
    mark_sources t lane previous;
    mark_targets t lane placement;
    ignore (connect t lane ~previous ~next:placement ~start:phys_start ~pos:0 : bool));
  let completed = advance t scratch ~cutoff:infinity placement stage in
  assert completed;
  Timing.stage_makespan scratch

(* The running minimum is passed boxed and reboxed only when it improves,
   and the limit is one of two boxed values, so a completion that hits
   the route table allocates nothing. *)
let deep_tail t lane ~cutoff ~start ~pos ~stage1 ~placement ~next_stage
    ~next_mappings =
  let count = Array.length next_mappings in
  if count = 0 then stage1
  else begin
    mark_sources t lane placement;
    let previous = Some placement in
    let rec go i best =
      if i = count then best
      else begin
        Telemetry.incr t.scored;
        complete t lane ~previous:placement next_mappings.(i);
        let limit = cutoff_of t (if best < cutoff then best else cutoff) in
        if
          score_connected t lane ~cutoff:limit ~prebound:true ~previous ~start
            ~pos ~next:lane.l_next next_stage
        then begin
          let clocks = Timing.clocks lane.l_scratch in
          let s = ref 0.0 in
          for v = 0 to t.m - 1 do
            if clocks.(v) > !s then s := clocks.(v)
          done;
          if !s < best then go (i + 1) !s else go (i + 1) best
        end
        else begin
          Telemetry.incr t.early_exits;
          go (i + 1) best
        end
      end
    in
    go 0 infinity
  end
