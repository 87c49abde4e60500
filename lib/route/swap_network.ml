type level = (int * int) list

type t = level list

let depth t = List.length t

type sequence = int array

module Swap_word = Qcp_circuit.Swap_word

let of_levels t =
  let s = Array.make (List.fold_left (fun acc l -> acc + List.length l) 0 t) 0 in
  let next = ref 0 in
  List.iteri
    (fun level swaps ->
      List.iter
        (fun (u, v) ->
          s.(!next) <- Swap_word.make u v ~level;
          incr next)
        swaps)
    t;
  s

let levels s =
  let depth = Array.fold_left (fun d w -> max d (Swap_word.level w + 1)) 0 s in
  let buckets = Array.make depth [] in
  for i = Array.length s - 1 downto 0 do
    let w = s.(i) in
    let l = Swap_word.level w in
    buckets.(l) <- (Swap_word.u w, Swap_word.v w) :: buckets.(l)
  done;
  List.filter (fun level -> level <> []) (Array.to_list buckets)

let swap_count t = List.fold_left (fun acc level -> acc + List.length level) 0 t

let is_valid g t =
  List.for_all
    (fun level ->
      let touched = List.concat_map (fun (u, v) -> [ u; v ]) level in
      List.length touched = List.length (List.sort_uniq Int.compare touched)
      && List.for_all (fun (u, v) -> u <> v && Qcp_graph.Graph.mem_edge g u v) level)
    t

let apply t config =
  let out = Array.copy config in
  List.iter
    (List.iter (fun (u, v) ->
         let tmp = out.(u) in
         out.(u) <- out.(v);
         out.(v) <- tmp))
    t;
  out

let realizes t ~perm =
  let n = Array.length perm in
  let final = apply t (Array.init n (fun v -> v)) in
  let ok = ref true in
  Array.iteri (fun vertex token -> if perm.(token) <> vertex then ok := false) final;
  !ok

let to_circuit ~qubits t =
  Qcp_circuit.Circuit.make ~qubits
    (List.concat_map (List.map (fun (u, v) -> Qcp_circuit.Gate.swap u v)) t)

let pp ppf t =
  List.iteri
    (fun i level ->
      Format.fprintf ppf "level %d:" (i + 1);
      List.iter (fun (u, v) -> Format.fprintf ppf " (%d,%d)" u v) level;
      Format.fprintf ppf "@.")
    t

(* Per-domain work arrays of {!compressed}, grown on demand: a kept stage
   of a large register converts thousands of swaps, and fresh arrays of
   that size would go straight to the major heap each time. *)
type scratch = {
  mutable starts : int array; (* per uncompressed level: next order slot *)
  mutable order : int array; (* swap indices stable-sorted by level *)
  mutable assigned : int array; (* compressed level of each swap *)
  mutable ready : int array; (* earliest free level per vertex *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { starts = [||]; order = [||]; assigned = [||]; ready = [||] })

let zeroed a size = if Array.length a < size then Array.make size 0 else a

(* The swaps stable-sorted by level (a counting sort: the order of
   [levels s] concatenated), then bucketed ASAP in that order: each swap
   at the earliest level where both its vertices are free, sequence order
   kept within a bucket.  Only the result's tuples and lists are
   allocated. *)
let compressed s =
  let count = Array.length s in
  if count = 0 then []
  else begin
    let top_level = ref 0 and top_vertex = ref 0 in
    Array.iter
      (fun w ->
        top_level := max !top_level (Swap_word.level w);
        top_vertex := max !top_vertex (max (Swap_word.u w) (Swap_word.v w)))
      s;
    let k = Domain.DLS.get scratch_key in
    k.starts <- zeroed k.starts (!top_level + 2);
    k.order <- zeroed k.order count;
    k.assigned <- zeroed k.assigned count;
    k.ready <- zeroed k.ready (!top_vertex + 1);
    let starts = k.starts and order = k.order and assigned = k.assigned in
    let ready = k.ready in
    Array.fill starts 0 (!top_level + 2) 0;
    Array.fill ready 0 (!top_vertex + 1) 0;
    Array.iter (fun w -> starts.(Swap_word.level w + 1) <- starts.(Swap_word.level w + 1) + 1) s;
    for l = 1 to !top_level + 1 do
      starts.(l) <- starts.(l) + starts.(l - 1)
    done;
    Array.iteri
      (fun i w ->
        let l = Swap_word.level w in
        order.(starts.(l)) <- i;
        starts.(l) <- starts.(l) + 1)
      s;
    let depth = ref 0 in
    for j = 0 to count - 1 do
      let i = order.(j) in
      let u = Swap_word.u s.(i) and v = Swap_word.v s.(i) in
      let level = max ready.(u) ready.(v) in
      ready.(u) <- level + 1;
      ready.(v) <- level + 1;
      assigned.(i) <- level;
      depth := max !depth (level + 1)
    done;
    let buckets = Array.make !depth [] in
    for j = count - 1 downto 0 do
      let i = order.(j) in
      let w = s.(i) in
      buckets.(assigned.(i)) <- (Swap_word.u w, Swap_word.v w) :: buckets.(assigned.(i))
    done;
    Array.to_list buckets
  end

let compress t = compressed (of_levels t)
