(* Little-endian array of base-10^9 limbs. *)
type t = int array

let base = 1_000_000_000

let normalize limbs =
  let n = Array.length limbs in
  let rec last_nonzero i = if i <= 0 then 0 else if limbs.(i) <> 0 then i else last_nonzero (i - 1) in
  let top = last_nonzero (n - 1) in
  if top = n - 1 then limbs else Array.sub limbs 0 (top + 1)

let of_int value =
  assert (value >= 0);
  if value < base then [| value |]
  else if value < base * base then [| value mod base; value / base |]
  else [| value mod base; value / base mod base; value / base / base |]

let one = [| 1 |]

let mul_int t k =
  assert (k >= 0);
  if k = 0 then [| 0 |]
  else begin
    let n = Array.length t in
    let out = Array.make (n + 2) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let prod = (t.(i) * k) + !carry in
      out.(i) <- prod mod base;
      carry := prod / base
    done;
    let i = ref n in
    while !carry > 0 do
      out.(!i) <- !carry mod base;
      carry := !carry / base;
      incr i
    done;
    normalize out
  end

let to_string t =
  let n = Array.length t in
  let buf = Buffer.create (n * 9) in
  Buffer.add_string buf (string_of_int t.(n - 1));
  for i = n - 2 downto 0 do
    Buffer.add_string buf (Printf.sprintf "%09d" t.(i))
  done;
  Buffer.contents buf

let digits t = String.length (to_string t)

let equal_arrays a b = normalize a = normalize b

let to_int_opt t =
  if Array.length t > 3 then None
  else begin
    let value =
      Array.to_list t |> List.rev
      |> List.fold_left (fun acc limb -> (acc * base) + limb) 0
    in
    (* Detect overflow by round-tripping. *)
    if equal_arrays (of_int value) t then Some value else None
  end

let falling_factorial m n =
  assert (m >= n && n >= 0);
  let rec loop acc i = if i >= n then acc else loop (mul_int acc (m - i)) (i + 1) in
  loop one 0
