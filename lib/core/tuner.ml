module Environment = Qcp_env.Environment

let candidate_thresholds env =
  let m = Environment.size env in
  let values = ref [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let d = Environment.coupling_delay env i j in
      if Float.is_finite d then values := d :: !values
    done
  done;
  List.sort_uniq Float.compare !values |> List.map (fun d -> d +. 1e-9)

let sweep ?(jobs = Qcp_util.Task_pool.env_jobs ())
    ?(options = fun ~threshold -> Options.default ~threshold) env circuit =
  let thresholds = candidate_thresholds env in
  (* The whole sweep rides {!Portfolio.place_batch}: outcome order follows
     the threshold order and each job is bit-identical to a sequential
     {!Portfolio.place} call, so parallelizing the sweep cannot change
     which threshold {!best} selects. *)
  let outcomes =
    Portfolio.place_batch ~jobs
      (List.map (fun threshold -> (options ~threshold, env, circuit)) thresholds)
  in
  List.combine thresholds outcomes

let best results =
  let best =
    List.fold_left
      (fun acc (_, outcome) ->
        match outcome with
        | Placer.Unplaceable _ -> acc
        | Placer.Placed p -> (
          let runtime = Placer.runtime p in
          match acc with
          | Some (_, best_runtime) when best_runtime <= runtime -> acc
          | Some _ | None -> Some (p, runtime)))
      None results
  in
  match best with
  | Some (p, _) -> Placer.Placed p
  | None ->
    Placer.Unplaceable "no candidate threshold admits a placement"

let auto_place ?jobs ?options env circuit =
  best (sweep ?jobs ?options env circuit)
