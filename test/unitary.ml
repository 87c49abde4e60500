module Gate = Qcp_circuit.Gate
module Circuit = Qcp_circuit.Circuit
module Statevec = Qcp_sim.Statevec

type t = { n : int; m : Complex.t array array (* m.(row).(col) *) }

let qubits t = t.n

let entry t row col = t.m.(row).(col)

let of_circuit circuit =
  let n = Circuit.qubits circuit in
  let dim = 1 lsl n in
  let m = Array.make_matrix dim dim Complex.zero in
  for col = 0 to dim - 1 do
    let out = Statevec.run circuit (Statevec.basis ~n col) in
    let amp = Statevec.amplitudes out in
    for row = 0 to dim - 1 do
      m.(row).(col) <- amp.(row)
    done
  done;
  { n; m }

let mul a b =
  if a.n <> b.n then invalid_arg "Unitary.mul: dimension mismatch";
  let dim = 1 lsl a.n in
  let m = Array.make_matrix dim dim Complex.zero in
  for row = 0 to dim - 1 do
    for col = 0 to dim - 1 do
      let acc = ref Complex.zero in
      for k = 0 to dim - 1 do
        acc := Complex.add !acc (Complex.mul a.m.(row).(k) b.m.(k).(col))
      done;
      m.(row).(col) <- !acc
    done
  done;
  { n = a.n; m }

let of_qubit_permutation ~n perm =
  if Array.length perm <> n then invalid_arg "Unitary.of_qubit_permutation";
  let dim = 1 lsl n in
  let m = Array.make_matrix dim dim Complex.zero in
  for col = 0 to dim - 1 do
    let row = ref 0 in
    for q = 0 to n - 1 do
      if col land (1 lsl q) <> 0 then row := !row lor (1 lsl perm.(q))
    done;
    m.(!row).(col) <- Complex.one
  done;
  { n; m }

(* Phase aligning a to b: the ratio at a maximal-magnitude entry of b. *)
let alignment_phase a b =
  let dim = 1 lsl a.n in
  let best = ref Complex.zero in
  let phase = ref Complex.one in
  for row = 0 to dim - 1 do
    for col = 0 to dim - 1 do
      if Complex.norm b.m.(row).(col) > Complex.norm !best then begin
        best := b.m.(row).(col);
        if Complex.norm a.m.(row).(col) > 1e-12 then
          phase := Complex.div b.m.(row).(col) a.m.(row).(col)
      end
    done
  done;
  let mag = Complex.norm !phase in
  if mag < 1e-12 then Complex.one
  else Complex.div !phase { Complex.re = mag; im = 0.0 }

let distance a b =
  if a.n <> b.n then invalid_arg "Unitary.distance: dimension mismatch";
  let phase = alignment_phase a b in
  let dim = 1 lsl a.n in
  let worst = ref 0.0 in
  for row = 0 to dim - 1 do
    for col = 0 to dim - 1 do
      let diff = Complex.sub (Complex.mul phase a.m.(row).(col)) b.m.(row).(col) in
      worst := Float.max !worst (Complex.norm diff)
    done
  done;
  !worst

let equal_up_to_phase ?(tol = 1e-9) a b = a.n = b.n && distance a b < tol

let is_unitary ?(tol = 1e-9) t =
  let dim = 1 lsl t.n in
  let ok = ref true in
  for row = 0 to dim - 1 do
    for col = 0 to dim - 1 do
      let acc = ref Complex.zero in
      for k = 0 to dim - 1 do
        acc := Complex.add !acc (Complex.mul t.m.(row).(k) (Complex.conj t.m.(col).(k)))
      done;
      let expect = if row = col then Complex.one else Complex.zero in
      if Complex.norm (Complex.sub !acc expect) > tol then ok := false
    done
  done;
  !ok
