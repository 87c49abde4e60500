type counter = { c_name : string; c_cell : int Atomic.t }

type gauge = { g_name : string; g_lock : Mutex.t; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_counts : int Atomic.t array; (* length = bounds + 1 (overflow bucket) *)
  h_lock : Mutex.t; (* protects h_sum / h_count *)
  mutable h_sum : float;
  mutable h_count : int;
}

type item = C of counter | G of gauge | H of histogram

type t = { lock : Mutex.t; items : (string, item) Hashtbl.t }

let create () = { lock = Mutex.create (); items = Hashtbl.create 32 }

let global = create ()

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

let intern t name make classify =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.items name with
      | Some item -> (
        match classify item with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as another kind"
               name))
      | None ->
        let item, v = make () in
        Hashtbl.add t.items name item;
        v)

let counter t name =
  intern t name
    (fun () ->
      let c = { c_name = name; c_cell = Atomic.make 0 } in
      (C c, c))
    (function C c -> Some c | G _ | H _ -> None)

let incr c = Atomic.incr c.c_cell

let add c n = ignore (Atomic.fetch_and_add c.c_cell n : int)

let count c = Atomic.get c.c_cell

let gauge t name =
  intern t name
    (fun () ->
      let g = { g_name = name; g_lock = Mutex.create (); g_value = 0.0 } in
      (G g, g))
    (function G g -> Some g | C _ | H _ -> None)

let set g v = Mutex.protect g.g_lock (fun () -> g.g_value <- v)

let gauge_value g = Mutex.protect g.g_lock (fun () -> g.g_value)

let default_time_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let bucket_index bounds v =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && v > bounds.(!i) do
    Stdlib.incr i
  done;
  !i

let histogram ?(bounds = default_time_bounds) t name =
  intern t name
    (fun () ->
      (if Array.length bounds = 0 then
         invalid_arg "Metrics.histogram: empty bounds");
      Array.iteri
        (fun i b ->
          if i > 0 && b <= bounds.(i - 1) then
            invalid_arg "Metrics.histogram: bounds must be strictly increasing")
        bounds;
      let h =
        {
          h_name = name;
          h_bounds = Array.copy bounds;
          h_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_lock = Mutex.create ();
          h_sum = 0.0;
          h_count = 0;
        }
      in
      (H h, h))
    (function H h -> Some h | C _ | G _ -> None)

let observe h v =
  Atomic.incr h.h_counts.(bucket_index h.h_bounds v);
  Mutex.protect h.h_lock (fun () ->
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;
      sum : float;
      count : int;
    }

type snapshot = (string * value) list

let item_value = function
  | C c -> Counter (count c)
  | G g -> Gauge (gauge_value g)
  | H h ->
    let sum, cnt = Mutex.protect h.h_lock (fun () -> (h.h_sum, h.h_count)) in
    Histogram
      {
        bounds = Array.copy h.h_bounds;
        counts = Array.map Atomic.get h.h_counts;
        sum;
        count = cnt;
      }

let snapshot t =
  let rows =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun name item acc -> (name, item) :: acc) t.items [])
  in
  (* Values are read outside the registry lock: item cells have their own
     synchronization, and holding both locks at once is never needed. *)
  List.map (fun (name, item) -> (name, item_value item)) rows
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name = List.assoc_opt name snap

let merge_into src ~into =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n ->
        (* Interned even at zero: a counter that read zero (no budget
           cut-off, say) is an answer, and an export must tell it apart
           from a build without the counter. *)
        let c = counter into name in
        if n <> 0 then add c n
      | Gauge g -> set (gauge into name) g
      | Histogram { bounds; counts; sum; count = cnt } ->
        let h = histogram ~bounds into name in
        if h.h_bounds <> bounds then
          invalid_arg
            (Printf.sprintf "Metrics.merge_into: %S bounds mismatch" name);
        Array.iteri
          (fun i n -> if n <> 0 then ignore (Atomic.fetch_and_add h.h_counts.(i) n : int))
          counts;
        Mutex.protect h.h_lock (fun () ->
            h.h_sum <- h.h_sum +. sum;
            h.h_count <- h.h_count + cnt))
    (snapshot src)

let reset t =
  let rows =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun _ item acc -> item :: acc) t.items [])
  in
  List.iter
    (function
      | C c -> Atomic.set c.c_cell 0
      | G g -> set g 0.0
      | H h ->
        Array.iter (fun cell -> Atomic.set cell 0) h.h_counts;
        Mutex.protect h.h_lock (fun () ->
            h.h_sum <- 0.0;
            h.h_count <- 0))
    rows
