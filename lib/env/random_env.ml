module Rng = Qcp_util.Rng

let draw rng (lo, hi) = lo +. Rng.float rng (hi -. lo)

let molecule ?(extra_bonds = 0) ?(fast = (25.0, 160.0)) ?(medium = (150.0, 500.0))
    ?(slow = (1000.0, 9000.0)) rng ~n =
  if n < 2 then invalid_arg "Random_env.molecule: need at least 2 nuclei";
  let bonds = Qcp_graph.Generators.random_connected rng ~n ~extra_edges:extra_bonds in
  let dist_matrix =
    Array.init n (fun v -> Qcp_graph.Paths.bfs_dist bonds v)
  in
  let couplings = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let band =
        match dist_matrix.(i).(j) with
        | 1 -> fast
        | 2 -> medium
        | _ -> slow
      in
      couplings := (i, j, draw rng band) :: !couplings
    done
  done;
  let nuclei = Array.init n (fun i -> Printf.sprintf "n%d" (i + 1)) in
  let single = Array.init n (fun _ -> 1.0 +. Rng.float rng 9.0) in
  let t2 = Array.init n (fun _ -> 4000.0 +. Rng.float rng 12000.0) in
  Environment.of_couplings ~t2
    ~name:(Printf.sprintf "random-molecule-%d" n)
    ~nuclei ~single ~couplings:!couplings ()

let interesting_threshold rng env =
  let m = Environment.size env in
  let fastest = ref Float.infinity in
  let slowest = ref 0.0 in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let d = Environment.coupling_delay env i j in
      if Float.is_finite d then begin
        if d < !fastest then fastest := d;
        if d > !slowest then slowest := d
      end
    done
  done;
  if !slowest <= !fastest then !fastest +. 1.0
  else !fastest +. Rng.float rng (!slowest -. !fastest)
