module Circuit = Qcp_circuit.Circuit
module Statevec = Qcp_sim.Statevec
module Environment = Qcp_env.Environment

let embed_input ~m ~placement ~input =
  let physical = ref 0 in
  Array.iteri
    (fun q v -> if input land (1 lsl q) <> 0 then physical := !physical lor (1 lsl v))
    placement;
  Statevec.basis ~n:m !physical

let expected_physical ~m ~final ~logical_state =
  let n = Statevec.qubits logical_state in
  let amps = Statevec.amplitudes logical_state in
  let dim_m = 1 lsl m in
  let expected = Array.make dim_m Complex.zero in
  Array.iteri
    (fun logical_index amp ->
      let physical_index = ref 0 in
      for q = 0 to n - 1 do
        if logical_index land (1 lsl q) <> 0 then
          physical_index := !physical_index lor (1 lsl final.(q))
      done;
      expected.(!physical_index) <- amp)
    amps;
  expected

let equivalent_on_input ~program ~input =
  let source = program.Placer.source in
  let n = Circuit.qubits source in
  let m = Environment.size program.Placer.env in
  if m > 14 then invalid_arg "Verify: environment too large to simulate";
  match (Placer.initial_placement program, Placer.final_placement program) with
  | None, _ | _, None ->
    (* No computation stage: the program is empty, so the source must act as
       the identity on the tested input. *)
    let out = Statevec.run source (Statevec.basis ~n input) in
    Statevec.equal_up_to_phase out (Statevec.basis ~n input)
  | Some first, Some final ->
    let physical_in = embed_input ~m ~placement:first ~input in
    let physical_out =
      Statevec.run (Placer.to_physical_circuit program) physical_in
    in
    let logical_out = Statevec.run source (Statevec.basis ~n input) in
    let expected = expected_physical ~m ~final ~logical_state:logical_out in
    let actual = Statevec.amplitudes physical_out in
    (* Exact comparison (not just up to phase): stages apply the very same
       gates, and SWAPs are phase-free. *)
    let ok = ref true in
    Array.iteri
      (fun i amp ->
        if Complex.norm (Complex.sub amp expected.(i)) > 1e-9 then ok := false)
      actual;
    !ok

let default_inputs n =
  if n <= 6 then Qcp_util.Listx.range (1 lsl n)
  else [ 0; 1; (1 lsl n) - 1 ]

let equivalent ?inputs program =
  let n = Circuit.qubits program.Placer.source in
  let inputs = match inputs with Some list -> list | None -> default_inputs n in
  List.for_all (fun input -> equivalent_on_input ~program ~input) inputs

let equivalent_sampled rng ~samples program =
  let n = Circuit.qubits program.Placer.source in
  let dim = 1 lsl n in
  List.for_all
    (fun _ -> equivalent_on_input ~program ~input:(Qcp_util.Rng.int rng dim))
    (Qcp_util.Listx.range samples)

(* ------------------------------------------------------------------ *)
(* Streaming verification of spilled runs                              *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  module Json = Qcp_util.Json

  type report = {
    computes : int;
    networks : int;
    swap_depth : int;
    swap_count : int;
    makespan : float;
    qubits : int;
    first : int array option;
    last : int array option;
  }

  type state = {
    mutable st_computes : int;
    mutable st_networks : int;
    mutable st_swap_depth : int;
    mutable st_swap_count : int;
    mutable st_makespan : float;
    mutable st_qubits : int; (* placement width, -1 until the first stage *)
    mutable st_first : int array option;
    mutable st_last : int array option;
    mutable st_next_index : int; (* expected "stage" of the next event *)
    mutable st_pending_network : bool;
        (* a permute was seen and its following compute has not arrived *)
    seen : (int, unit) Hashtbl.t; (* injectivity scratch, reset per stage *)
  }

  let field_int line name =
    match Option.bind (Json.member name line) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or non-integer %S" name)

  let field_float line name =
    match Option.bind (Json.member name line) Json.to_float with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or non-number %S" name)

  let ( let* ) = Result.bind

  let check cond msg = if cond then Ok () else Error msg

  let placement_of ?register st line =
    match Option.bind (Json.member "placement" line) Json.to_list with
    | None -> Error "missing or non-array \"placement\""
    | Some items ->
      let n = List.length items in
      let* () =
        check
          (st.st_qubits < 0 || st.st_qubits = n)
          (Printf.sprintf "placement width %d, expected %d" n st.st_qubits)
      in
      let* () =
        match register with
        | Some m when n > m ->
          Error
            (Printf.sprintf "placement lists %d qubits on a %d-vertex register"
               n m)
        | Some _ | None -> Ok ()
      in
      let placement = Array.make n 0 in
      Hashtbl.reset st.seen;
      let rec fill i = function
        | [] -> Ok placement
        | item :: rest -> (
          match Json.to_int item with
          | None -> Error "non-integer placement entry"
          | Some v ->
            let* () = check (v >= 0) "negative placement entry" in
            let* () =
              match register with
              | Some m ->
                check (v < m)
                  (Printf.sprintf "placement entry %d outside register %d" v m)
              | None -> Ok ()
            in
            let* () =
              check
                (not (Hashtbl.mem st.seen v))
                (Printf.sprintf "placement maps two qubits to vertex %d" v)
            in
            Hashtbl.add st.seen v ();
            placement.(i) <- v;
            fill (i + 1) rest)
      in
      fill 0 items

  let apply_line ?register st raw =
    let* line =
      Result.map_error (fun msg -> "bad JSON: " ^ msg) (Json.parse raw)
    in
    let* index = field_int line "stage" in
    let* () =
      check (index = st.st_next_index)
        (Printf.sprintf "stage index %d, expected %d" index st.st_next_index)
    in
    let* kind =
      match Option.bind (Json.member "kind" line) Json.to_str with
      | Some k -> Ok k
      | None -> Error "missing or non-string \"kind\""
    in
    match kind with
    | "compute" ->
      let* gates = field_int line "gates" in
      let* () = check (gates >= 0) "negative gate count" in
      let* makespan = field_float line "makespan" in
      let* () =
        check
          (makespan >= st.st_makespan)
          (Printf.sprintf "makespan %g below the running makespan %g" makespan
             st.st_makespan)
      in
      let* placement = placement_of ?register st line in
      st.st_qubits <- Array.length placement;
      if st.st_first = None then st.st_first <- Some placement;
      st.st_last <- Some placement;
      st.st_makespan <- makespan;
      st.st_computes <- st.st_computes + 1;
      st.st_pending_network <- false;
      st.st_next_index <- index + 1;
      Ok ()
    | "permute" ->
      let* () =
        check (st.st_computes > 0) "permute stage before any compute stage"
      in
      let* () =
        check
          (not st.st_pending_network)
          "two consecutive permute stages"
      in
      let* depth = field_int line "depth" in
      let* swaps = field_int line "swaps" in
      let* () = check (depth >= 0 && swaps >= 0) "negative permute counts" in
      let* () =
        check (swaps >= depth)
          (Printf.sprintf "%d swaps across %d levels (every level swaps)"
             swaps depth)
      in
      st.st_networks <- st.st_networks + 1;
      st.st_swap_depth <- st.st_swap_depth + depth;
      st.st_swap_count <- st.st_swap_count + swaps;
      st.st_pending_network <- true;
      st.st_next_index <- index + 1;
      Ok ()
    | other -> Error (Printf.sprintf "unknown stage kind %S" other)

  let verify_file ?register path =
    match (try Ok (open_in path) with Sys_error msg -> Error msg) with
    | Error msg -> Error msg
    | Ok ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let st =
        {
          st_computes = 0;
          st_networks = 0;
          st_swap_depth = 0;
          st_swap_count = 0;
          st_makespan = 0.0;
          st_qubits = -1;
          st_first = None;
          st_last = None;
          st_next_index = 0;
          st_pending_network = false;
          seen = Hashtbl.create 64;
        }
      in
      let rec fold lineno =
        match (try Some (input_line ic) with End_of_file -> None) with
        | None -> Ok lineno
        | Some raw when String.trim raw = "" -> fold (lineno + 1)
        | Some raw -> (
          match apply_line ?register st raw with
          | Ok () -> fold (lineno + 1)
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
      in
      let* _lines = fold 1 in
      let* () =
        check (st.st_computes > 0) "empty spill file (no compute stage)"
      in
      let* () =
        check
          (not st.st_pending_network)
          "trailing permute stage (no following compute)"
      in
      Ok
        {
          computes = st.st_computes;
          networks = st.st_networks;
          swap_depth = st.st_swap_depth;
          swap_count = st.st_swap_count;
          makespan = st.st_makespan;
          qubits = (if st.st_qubits < 0 then 0 else st.st_qubits);
          first = st.st_first;
          last = st.st_last;
        }
end
