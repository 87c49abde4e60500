(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks of sorted samples. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let percentile a p = percentile_sorted (sorted a) p

let median a = percentile a 50.0

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so noise spreads read the same as an external check of the
   printed values. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Time-sliced views of a run.  Other tenants of a shared host only ever
   add time, in bursts that can cover seconds, so a timing statistic is
   taken in each of several equal windows of the run and the best window
   is reported. *)

(* [values] split by their [times] into [n] equal windows of [t0, t1). *)
let windows ~t0 ~t1 ~n times values =
  let buckets = Array.make n [] in
  let width = (t1 -. t0) /. float_of_int n in
  Array.iteri
    (fun i t ->
      let w = int_of_float ((t -. t0) /. width) in
      if w >= 0 && w < n then buckets.(w) <- values.(i) :: buckets.(w))
    times;
  Array.map Array.of_list buckets

(* [a] in [n] consecutive chunks: windows by arrival order. *)
let chunks n a =
  let len = Array.length a in
  Array.init n (fun i ->
      let lo = i * len / n and hi = (i + 1) * len / n in
      Array.sub a lo (hi - lo))

(* The lowest (or highest) [stat] over the non-empty windows. *)
let best ~lower stat windows =
  Array.fold_left
    (fun acc w ->
      if Array.length w = 0 then acc
      else if lower then Float.min acc (stat w)
      else Float.max acc (stat w))
    (if lower then Float.infinity else Float.neg_infinity)
    windows

(* A growable float array: latency samples arrive one at a time. *)
module Vec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len

  let to_array v = Array.sub v.data 0 v.len
end
