module Gate = Qcp_circuit.Gate
module Circuit = Qcp_circuit.Circuit

type t = { n : int; rho : Complex.t array array }

let of_statevec state =
  let n = Statevec.qubits state in
  let amp = Statevec.amplitudes state in
  let dim = Array.length amp in
  let rho =
    Array.init dim (fun r ->
        Array.init dim (fun c -> Complex.mul amp.(r) (Complex.conj amp.(c))))
  in
  { n; rho }

let trace t =
  let acc = ref 0.0 in
  Array.iteri (fun i row -> acc := !acc +. row.(i).Complex.re) t.rho;
  !acc

let purity t =
  (* tr(rho^2) = sum_{ij} rho_ij * rho_ji; rho is Hermitian so this is the
     squared Frobenius norm. *)
  let acc = ref 0.0 in
  Array.iter
    (fun row -> Array.iter (fun z -> acc := !acc +. Complex.norm2 z) row)
    t.rho;
  !acc

(* Conjugate by the gate's unitary using the state-vector machinery: apply
   the gate to every column, then to every row of the conjugate transpose. *)
let apply_matrix_to_columns gate t =
  let dim = Array.length t.rho in
  let out = Array.make_matrix dim dim Complex.zero in
  for col = 0 to dim - 1 do
    (* Column [col] of rho as a (non-normalized) vector: apply the gate via
       a fake state built from amplitudes. *)
    let column = Array.init dim (fun row -> t.rho.(row).(col)) in
    let transformed = Statevec.apply_raw gate ~n:t.n column in
    for row = 0 to dim - 1 do
      out.(row).(col) <- transformed.(row)
    done
  done;
  { t with rho = out }

let conj_transpose t =
  let dim = Array.length t.rho in
  {
    t with
    rho = Array.init dim (fun r -> Array.init dim (fun c -> Complex.conj t.rho.(c).(r)));
  }

let apply_gate gate t =
  (* U rho U+ = (U ((U rho)+))+ *)
  let u_rho = apply_matrix_to_columns gate t in
  let u_rho_dag = conj_transpose u_rho in
  conj_transpose (apply_matrix_to_columns gate u_rho_dag)

let run_circuit circuit t =
  if Circuit.qubits circuit <> t.n then
    invalid_arg "Density.run_circuit: qubit count mismatch";
  List.fold_left (fun acc gate -> apply_gate gate acc) t (Circuit.gates circuit)

let dephase ~qubit ~p t =
  if p < 0.0 || p > 0.5 then invalid_arg "Density.dephase: p out of [0, 1/2]";
  (* (1-p) rho + p Z rho Z: entries where the qubit's bit differs between
     row and column are scaled by (1 - 2p). *)
  let mask = 1 lsl qubit in
  let damp = { Complex.re = 1.0 -. (2.0 *. p); im = 0.0 } in
  let dim = Array.length t.rho in
  let rho =
    Array.init dim (fun r ->
        Array.init dim (fun c ->
            if r land mask <> c land mask then Complex.mul damp t.rho.(r).(c)
            else t.rho.(r).(c)))
  in
  { t with rho }

let dephase_for ~qubit ~time ~t2 t =
  if (not (Float.is_finite t2)) || time <= 0.0 then t
  else dephase ~qubit ~p:((1.0 -. exp (-.time /. t2)) /. 2.0) t

let fidelity_to psi t =
  if Statevec.qubits psi <> t.n then
    invalid_arg "Density.fidelity_to: qubit count mismatch";
  let amp = Statevec.amplitudes psi in
  let dim = Array.length amp in
  (* <psi| rho |psi> *)
  let acc = ref Complex.zero in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      acc :=
        Complex.add !acc
          (Complex.mul (Complex.conj amp.(r)) (Complex.mul t.rho.(r).(c) amp.(c)))
    done
  done;
  !acc.Complex.re
