let bits = 21

let limit = 1 lsl bits

let mask = limit - 1

let make u v ~level =
  if u < 0 || u >= limit || v < 0 || v >= limit || level < 0 || level >= limit
  then invalid_arg "Swap_word.make: field out of range";
  u lor (v lsl bits) lor (level lsl (2 * bits))

let[@inline] u w = w land mask

let[@inline] v w = (w lsr bits) land mask

(* The level fills the top bits, sign bit included: [lsr] reads it back. *)
let[@inline] level w = w lsr (2 * bits)
