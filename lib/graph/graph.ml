(* Adjacency is stored twice: sorted neighbor arrays (stable iteration order
   for every search in the library) and packed bitsets of [word_bits]-bit
   integer words (O(1) membership, O(n/word_bits) candidate-set
   intersection).  Both are built once in [of_edges]; graphs are immutable
   afterwards, so the two views never diverge. *)

type t = {
  size : int;
  adj : int array array; (* sorted neighbor lists *)
  masks : int array array; (* bitset view of [adj]: bit v of masks.(u) *)
  degrees : int array; (* degrees.(v) = Array.length adj.(v) *)
  edge_list : (int * int) list; (* u < v, sorted, deduplicated *)
  nbr_degrees : int array array option Atomic.t;
      (* memoized neighbor-degree signatures (sorted descending), computed
         on first demand; graphs are immutable so the memo never stales.
         Atomic so a table built on one domain publishes safely to others
         (racing domains compute equal tables; last write wins) *)
  deg_suffix : int array option Atomic.t;
      (* memoized degree suffix counts: deg_suffix.(d) = #vertices with
         degree >= d, for d in [0, max_degree + 1]; atomic as above *)
}

let word_bits = 63 (* per OCaml native int *)

let mask_words n = (n + word_bits - 1) / word_bits

let mask_make n = Array.make (max 1 (mask_words n)) 0

let mask_set mask v =
  mask.(v / word_bits) <- mask.(v / word_bits) lor (1 lsl (v mod word_bits))

let mask_clear mask v =
  mask.(v / word_bits) <- mask.(v / word_bits) land lnot (1 lsl (v mod word_bits))

let mask_mem mask v = mask.(v / word_bits) land (1 lsl (v mod word_bits)) <> 0

let mask_inter_into ~into src =
  for w = 0 to Array.length into - 1 do
    into.(w) <- into.(w) land src.(w)
  done

let mask_diff_into ~into src =
  for w = 0 to Array.length into - 1 do
    into.(w) <- into.(w) land lnot src.(w)
  done

(* Index of the only set bit of [b] (a power of two), by binary search on
   shifts -- OCaml ints lack a hardware count-trailing-zeros primitive.
   Exposed so single-word searches can pop candidate bits without the
   [iter_mask] closure. *)
let bit_index b =
  let b = ref b and i = ref 0 in
  if !b land 0x7FFFFFFF00000000 <> 0 then begin b := !b lsr 32; i := !i + 32 end;
  if !b land 0xFFFF0000 <> 0 then begin b := !b lsr 16; i := !i + 16 end;
  if !b land 0xFF00 <> 0 then begin b := !b lsr 8; i := !i + 8 end;
  if !b land 0xF0 <> 0 then begin b := !b lsr 4; i := !i + 4 end;
  if !b land 0xC <> 0 then begin b := !b lsr 2; i := !i + 2 end;
  if !b land 0x2 <> 0 then incr i;
  !i

let iter_mask f mask =
  for w = 0 to Array.length mask - 1 do
    let m = ref mask.(w) in
    let base = w * word_bits in
    while !m <> 0 do
      let b = !m land (- !m) in
      f (base + bit_index b);
      m := !m lxor b
    done
  done

let check_vertex size v =
  if v < 0 || v >= size then invalid_arg (Printf.sprintf "Graph: vertex %d out of range [0,%d)" v size)

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let canonical size pairs =
  let normalized =
    List.filter_map
      (fun (u, v) ->
        check_vertex size u;
        check_vertex size v;
        if u = v then None else Some (min u v, max u v))
      pairs
  in
  List.sort_uniq compare_edge normalized

let of_edges size pairs =
  if size < 0 then invalid_arg "Graph.of_edges: negative size";
  let edge_list = canonical size pairs in
  let counts = Array.make size 0 in
  List.iter
    (fun (u, v) ->
      counts.(u) <- counts.(u) + 1;
      counts.(v) <- counts.(v) + 1)
    edge_list;
  let adj = Array.init size (fun v -> Array.make counts.(v) 0) in
  let masks = Array.init size (fun _ -> mask_make size) in
  let fill = Array.make size 0 in
  List.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1;
      mask_set masks.(u) v;
      mask_set masks.(v) u)
    edge_list;
  (* The lexicographic sweep over [edge_list] emits every row's entries in
     increasing order already (first the smaller endpoints, then the larger
     ones); the sort keeps that invariant explicit and cheap. *)
  Array.iter (fun row -> Array.sort Int.compare row) adj;
  {
    size;
    adj;
    masks;
    degrees = counts;
    edge_list;
    nbr_degrees = Atomic.make None;
    deg_suffix = Atomic.make None;
  }

let n t = t.size

let edge_count t = List.length t.edge_list

let edges t = t.edge_list

let neighbors t v =
  check_vertex t.size v;
  t.adj.(v)

let neighbor_mask t v =
  check_vertex t.size v;
  t.masks.(v)

let degree t v =
  check_vertex t.size v;
  t.degrees.(v)

let degrees t = t.degrees

let max_degree t =
  Array.fold_left (fun acc d -> max acc d) 0 t.degrees

let neighbor_degrees t =
  match Atomic.get t.nbr_degrees with
  | Some table -> table
  | None ->
    let table =
      Array.map
        (fun row ->
          let s = Array.map (fun v -> t.degrees.(v)) row in
          Array.sort (fun a b -> Int.compare b a) s;
          s)
        t.adj
    in
    Atomic.set t.nbr_degrees (Some table);
    table

let degree_suffix t =
  match Atomic.get t.deg_suffix with
  | Some s -> s
  | None ->
    let maxd = max_degree t in
    let s = Array.make (maxd + 2) 0 in
    Array.iter (fun d -> s.(d) <- s.(d) + 1) t.degrees;
    for d = maxd - 1 downto 0 do
      s.(d) <- s.(d) + s.(d + 1)
    done;
    Atomic.set t.deg_suffix (Some s);
    s

let mem_edge t u v =
  check_vertex t.size u;
  check_vertex t.size v;
  mask_mem t.masks.(u) v

let is_empty t = t.edge_list = []

let vertices t = List.init t.size (fun i -> i)

let induced t vs =
  let back = Array.of_list vs in
  let fwd = Array.make t.size (-1) in
  Array.iteri (fun i v -> check_vertex t.size v; fwd.(v) <- i) back;
  let sub_edges =
    List.filter_map
      (fun (u, v) ->
        if fwd.(u) >= 0 && fwd.(v) >= 0 then Some (fwd.(u), fwd.(v)) else None)
      t.edge_list
  in
  (of_edges (Array.length back) sub_edges, back)

let add_edges t extra = of_edges t.size (extra @ t.edge_list)

let leaves t =
  List.filter (fun v -> Array.length t.adj.(v) = 1) (vertices t)

let equal a b = a.size = b.size && a.edge_list = b.edge_list
