type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* Finalization mix of splitmix64. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  assert (bound > 0);
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle_in_place t arr;
  arr
