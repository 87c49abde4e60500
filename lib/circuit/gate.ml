type axis = X | Y | Z

type kind1 =
  | Rotation of axis * float
  | Hadamard
  | Custom1 of string * float

type kind2 =
  | ZZ of float
  | Cnot
  | Cphase of float
  | Swap
  | Custom2 of string * float

type t =
  | G1 of kind1 * int
  | G2 of kind2 * int * int

(* Inlined into both readers below, so [write_duration] stores the weight
   without boxing it. *)
let[@inline] weight = function
  | G1 (Rotation (Z, _), _) -> 0.0
  | G1 (Rotation ((X | Y), angle), _) -> Float.abs angle /. 90.0
  | G1 (Hadamard, _) -> 1.0
  | G1 (Custom1 (_, weight), _) -> weight
  | G2 (ZZ angle, _, _) -> Float.abs angle /. 90.0
  | G2 (Cnot, _, _) -> 1.0
  | G2 (Cphase angle, _, _) -> Float.abs angle /. 180.0
  | G2 (Swap, _, _) -> 3.0
  | G2 (Custom2 (_, weight), _, _) -> weight

let duration gate = weight gate

let write_duration dst i gate = dst.(i) <- weight gate

let qubits = function
  | G1 (_, q) -> [ q ]
  | G2 (_, a, b) -> [ a; b ]

let is_two_qubit = function G1 _ -> false | G2 _ -> true

let map_qubits f = function
  | G1 (kind, q) -> G1 (kind, f q)
  | G2 (kind, a, b) -> G2 (kind, f a, f b)

let axis_name = function X -> "x" | Y -> "y" | Z -> "z"

let name = function
  | G1 (Rotation (axis, angle), q) ->
    Printf.sprintf "R%s(%g) q%d" (axis_name axis) angle q
  | G1 (Hadamard, q) -> Printf.sprintf "H q%d" q
  | G1 (Custom1 (label, weight), q) -> Printf.sprintf "%s[%g] q%d" label weight q
  | G2 (ZZ angle, a, b) -> Printf.sprintf "ZZ(%g) q%d,q%d" angle a b
  | G2 (Cnot, a, b) -> Printf.sprintf "CNOT q%d,q%d" a b
  | G2 (Cphase angle, a, b) -> Printf.sprintf "CP(%g) q%d,q%d" angle a b
  | G2 (Swap, a, b) -> Printf.sprintf "SWAP q%d,q%d" a b
  | G2 (Custom2 (label, weight), a, b) ->
    Printf.sprintf "%s[%g] q%d,q%d" label weight a b

let equal a b = a = b

let rx q angle = G1 (Rotation (X, angle), q)
let ry q angle = G1 (Rotation (Y, angle), q)
let rz q angle = G1 (Rotation (Z, angle), q)
let h q = G1 (Hadamard, q)

let check_pair a b = if a = b then invalid_arg "Gate: two-qubit gate on equal qubits"

let zz a b angle = check_pair a b; G2 (ZZ angle, a, b)
let cnot a b = check_pair a b; G2 (Cnot, a, b)
let cphase a b angle = check_pair a b; G2 (Cphase angle, a, b)
let swap a b = check_pair a b; G2 (Swap, a, b)
let custom1 label weight q = G1 (Custom1 (label, weight), q)
let custom2 label weight a b = check_pair a b; G2 (Custom2 (label, weight), a, b)
