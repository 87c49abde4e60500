type level = (int * int) list

type t = level list

let depth t = List.length t

type flat = { swaps : int array; level_starts : int array }

let empty_flat = { swaps = [||]; level_starts = [| 0 |] }

let flat_depth f = Array.length f.level_starts - 1

let flatten t =
  let swaps = Array.make (2 * List.fold_left (fun acc l -> acc + List.length l) 0 t) 0 in
  let level_starts = Array.make (List.length t + 1) 0 in
  let next = ref 0 in
  List.iteri
    (fun l level ->
      List.iter
        (fun (u, v) ->
          swaps.(2 * !next) <- u;
          swaps.((2 * !next) + 1) <- v;
          incr next)
        level;
      level_starts.(l + 1) <- !next)
    t;
  { swaps; level_starts }

let of_flat f =
  List.init (flat_depth f) (fun l ->
      List.init
        (f.level_starts.(l + 1) - f.level_starts.(l))
        (fun i ->
          let k = f.level_starts.(l) + i in
          (f.swaps.(2 * k), f.swaps.((2 * k) + 1))))

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

let compress t =
  (* One counting pass in place of [List.concat] + [List.length]: the
     bucketing below visits swaps in the same order the concatenation
     would, so the result is unchanged. *)
  let count = ref 0 in
  let top = ref 0 in
  List.iter
    (List.iter (fun (u, v) ->
         incr count;
         if u > !top then top := u;
         if v > !top then top := v))
    t;
  if !count = 0 then []
  else begin
    (* ready.(v) is the earliest level where vertex v is free; assigned
       levels are contiguous, so plain arrays replace the hashtables. *)
    let ready = Array.make (!top + 1) 0 in
    let buckets = Array.make !count [] in
    let max_level = ref (-1) in
    List.iter
      (List.iter (fun ((u, v) as swap) ->
           let level = max ready.(u) ready.(v) in
           ready.(u) <- level + 1;
           ready.(v) <- level + 1;
           if level > !max_level then max_level := level;
           buckets.(level) <- swap :: buckets.(level)))
      t;
    List.init (!max_level + 1) (fun i -> List.rev buckets.(i))
  end
