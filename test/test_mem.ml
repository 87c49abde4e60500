(* Memory gate for the bounded-memory scale path, run by [dune runtest] in a
   process of its own: [Gc.stat ().top_heap_words] is a process-lifetime
   high-water mark, so the probes must run before anything else grows the
   heap, stream probe first.

   Instance: grid:16:16, seed 4747, 4 hidden stages x 25,000 gates.  The
   watermarks are deterministic (identical across runs and at any
   QCP_JOBS on OCaml 5.1.1), and each budget sits between what the
   streaming code reaches and what the materializing alternative reaches
   on the same instance:

   - dag-stream: a [Dag.Stream] drain tops at 1,388,469 words,
     [Dag.build] at 2,356,719; budget 1,850,000;
   - place-spill: a windowed placement under [Spill_drop] tops at
     4,895,832 words, under [No_spill] at 6,226,192; budget 5,550,000.

   So a change that goes back to building the offline DAG's edge lists or
   keeping the full stage list in the spilled path fails here.

   Usage: test_mem.exe          -- the gate (exit 1 over a budget)
          test_mem.exe --full   -- grid:32:32 / 10^6 gates, the acceptance-
                                   size instance: rows only, no budgets *)

let probe name ~budget f =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let top = (Gc.stat ()).Gc.top_heap_words in
  Printf.printf "%-24s %8.3f s %12d top-heap words (%.1f MB)%s\n%!" name wall
    top
    (float_of_int top *. 8.0 /. 1e6)
    (match budget with
    | Some b -> Printf.sprintf ", budget %d" b
    | None -> "");
  match budget with Some b -> top < b | None -> true

let () =
  let full = Array.mem "--full" Sys.argv in
  let env =
    if full then Qcp_env.Environment.grid 32 32
    else Qcp_env.Environment.grid 16 16
  in
  let circuit =
    let rng = Qcp_util.Rng.create 4747 in
    Qcp_circuit.Random_circuit.hidden_stages_custom rng
      ~n:(if full then 1024 else 256)
      ~stages:4
      ~gates_per_stage:(if full then 250_000 else 25_000)
  in
  let budget words = if full then None else Some words in
  let stream_ok =
    probe "scale/dag-stream" ~budget:(budget 1_850_000) (fun () ->
        let stream = Qcp_circuit.Dag.Stream.create circuit in
        let rec drain acc =
          match Qcp_circuit.Dag.Stream.next stream with
          | None -> acc
          | Some i ->
            Qcp_circuit.Dag.Stream.emit stream i;
            drain (acc + 1)
        in
        drain 0)
  in
  let spill_ok =
    probe "scale/place-spill" ~budget:(budget 5_550_000) (fun () ->
        let options =
          {
            (Qcp.Options.scale ~threshold:50.0) with
            Qcp.Options.spill = Qcp.Options.Spill_drop;
            jobs = 0;
          }
        in
        match Qcp.Placer.place options env circuit with
        | Qcp.Placer.Placed p -> Qcp.Placer.runtime p
        | Qcp.Placer.Unplaceable _ -> nan)
  in
  if not (stream_ok && spill_ok) then begin
    prerr_endline "memory gate: a top-heap watermark is over its budget";
    exit 1
  end
