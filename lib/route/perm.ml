type t = int array

let identity n = Array.init n (fun i -> i)

let is_valid p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.for_all
    (fun dst ->
      dst >= 0 && dst < n
      &&
      if seen.(dst) then false
      else begin
        seen.(dst) <- true;
        true
      end)
    p

let is_identity p =
  let ok = ref true in
  Array.iteri (fun i dst -> if i <> dst then ok := false) p;
  !ok

let inverse p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun src dst -> inv.(dst) <- src) p;
  inv

let compose p q = Array.init (Array.length p) (fun i -> p.(q.(i)))

let random rng n = Qcp_util.Rng.permutation rng n

type builder = { mutable perm : int array; mutable taken : bool array }

let builder () = { perm = [||]; taken = [||] }

let of_placements_into b ~size ~before ~after =
  if Array.length before <> Array.length after then
    invalid_arg "Perm.of_placements: placement lengths differ";
  if Array.length b.perm <> size then begin
    b.perm <- Array.make size (-1);
    b.taken <- Array.make size false
  end;
  let perm = b.perm and taken = b.taken in
  Array.fill perm 0 size (-1);
  Array.fill taken 0 size false;
  for q = 0 to Array.length before - 1 do
    let src = before.(q) and dst = after.(q) in
    if src < 0 || src >= size || dst < 0 || dst >= size then
      invalid_arg "Perm.of_placements: vertex out of range";
    if perm.(src) >= 0 || taken.(dst) then
      invalid_arg "Perm.of_placements: placements not injective";
    perm.(src) <- dst;
    taken.(dst) <- true
  done;
  (* Complete over blank vertices: fix points first, then match leftover
     sources to free targets, both in index order. *)
  for v = 0 to size - 1 do
    if perm.(v) < 0 && not taken.(v) then begin
      perm.(v) <- v;
      taken.(v) <- true
    end
  done;
  let free = ref 0 in
  for src = 0 to size - 1 do
    if perm.(src) < 0 then begin
      while taken.(!free) do
        incr free
      done;
      perm.(src) <- !free;
      taken.(!free) <- true
    end
  done;
  (* [is_valid] without its allocation: [taken] becomes the seen marks. *)
  Array.fill taken 0 size false;
  for src = 0 to size - 1 do
    let dst = perm.(src) in
    assert (dst >= 0 && dst < size && not taken.(dst));
    taken.(dst) <- true
  done;
  perm

let of_placements ~size ~before ~after =
  of_placements_into (builder ()) ~size ~before ~after
