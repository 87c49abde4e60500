module Json = Qcp_util.Json
module Environment = Qcp_env.Environment
module Env_format = Qcp_env.Env_format
module Qc_format = Qcp_circuit.Qc_format
module Options = Qcp.Options
module Placer = Qcp.Placer

type place = {
  env : Environment.t;
  circuit : Qcp_circuit.Circuit.t;
  options : Options.t;
  deadline : float option;
  telemetry : bool;
  key : string;
}

type stats_format = Stats_json | Stats_prometheus

type request =
  | Place of place
  | Ping
  | Stats of stats_format
  | Dump
  | Shutdown

type envelope = {
  id : string;
  request : (request, string) result;
}

(* ------------------------------------------------------------------ *)
(* Spec resolution (no file paths: remote clients must not name files) *)
(* ------------------------------------------------------------------ *)

let resolve_env spec =
  if String.contains spec '\n' then
    try Ok (Env_format.parse spec) with
    | Env_format.Parse_error (line, msg) ->
      Error (Printf.sprintf "inline env, line %d: %s" line msg)
  else
    match Qcp_env.Molecules.by_name spec with
    | Some env -> Ok env
    | None -> (
      match String.split_on_char ':' spec with
      | [ "chain"; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> Ok (Environment.chain n)
        | Some _ | None -> Error "chain:<n> needs a positive integer")
      | [ "grid"; r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some r, Some c when r > 0 && c > 0 -> Ok (Environment.grid r c)
        | _ -> Error "grid:<rows>:<cols> needs positive integers")
      | _ ->
        Error
          (Printf.sprintf
             "unknown environment %S (molecules: %s; generators: chain:<n>, \
              grid:<r>:<c>; or inline .env text)"
             spec
             (String.concat ", " Qcp_env.Molecules.names)))

let resolve_circuit spec =
  if String.contains spec '\n' then
    try Ok (Qc_format.parse spec) with
    | Qc_format.Parse_error (line, msg) ->
      Error (Printf.sprintf "inline circuit, line %d: %s" line msg)
  else
    match Qcp_circuit.Catalog.by_name spec with
    | Some c -> Ok c
    | None -> (
      match Qcp_circuit.Library.by_name spec with
      | Some c -> Ok c
      | None ->
        Error
          (Printf.sprintf
             "unknown circuit %S (catalog: %s; library: %s; or inline .qc text)"
             spec
             (String.concat ", " Qcp_circuit.Catalog.names)
             (String.concat ", " Qcp_circuit.Library.names)))

(* ------------------------------------------------------------------ *)
(* Content-hash keys                                                   *)
(* ------------------------------------------------------------------ *)

(* An instance's printed text, memoized by physical identity.  The
   daemon's intern tables hand every repeat of a spec the same physical
   value, so a repeated request reprints nothing.  Keys are held weakly:
   an entry lives exactly as long as its value does elsewhere.  The hash
   reads only immutable content (never an environment's adjacency memo),
   and the lock makes the table safe to share across domains. *)
module Text_memo (V : sig
  type t

  val hash : t -> int
  val print : t -> string
end) =
struct
  module Table = Ephemeron.K1.Make (struct
    type t = V.t

    let equal = ( == )
    let hash = V.hash
  end)

  let table = Table.create 64
  let lock = Mutex.create ()

  let text v =
    match Mutex.protect lock (fun () -> Table.find_opt table v) with
    | Some text -> text
    | None ->
      let text = V.print v in
      Mutex.protect lock (fun () -> Table.replace table v text);
      text

  let live () =
    Mutex.protect lock (fun () ->
        Table.clean table;
        Table.length table)
end

module Env_text = Text_memo (struct
  type t = Environment.t

  let hash env = Hashtbl.hash (Environment.name env, Environment.size env)
  let print = Env_format.print
end)

module Circuit_text = Text_memo (struct
  type t = Qcp_circuit.Circuit.t

  let hash c =
    Hashtbl.hash (Qcp_circuit.Circuit.qubits c, Qcp_circuit.Circuit.gates c)

  let print = Qc_format.print
end)

let key options env circuit =
  String.concat "\n"
    [
      "qcp-serve-v1";
      Options.canonical options;
      Env_text.text env;
      Circuit_text.text circuit;
    ]

let memo_entries () = Env_text.live () + Circuit_text.live ()

let key_hash s =
  (* FNV-1a, 64-bit.  A plain loop keeps the accumulator unboxed, so the
     16 hex digits are the only allocation. *)
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  let h = !h and hex = "0123456789abcdef" in
  String.init 16 (fun i ->
      hex.[Int64.to_int
             (Int64.logand (Int64.shift_right_logical h (60 - (4 * i))) 15L)])

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let opt_field name json f =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match f v with
    | Some _ as x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let opt_member name json f ~default =
  Result.map (Option.value ~default) (opt_field name json f)

(* Integer options are range-checked, never clamped: a clamped request
   would get a cache key of its own for the clamped value's result. *)
let below_range name low =
  Printf.sprintf "option %S must be at least %d" name low

let int_member name json ~low ~default =
  let* v = opt_member name json Json.to_int ~default in
  if v < low then Error (below_range name low) else Ok v

(* Decode the "options" object onto {!Options.default}.  Unknown names are
   rejected (a typo silently falling back to a default would cache-key the
   request differently than the client intended), as is [jobs], which the
   server owns (execution detail, excluded from keys). *)
let options_of_json env json =
  let known =
    [
      "threshold"; "monomorphisms"; "lookahead"; "fine_tune"; "leaf_override";
      "router"; "reuse_cap"; "sequential"; "commute"; "balance"; "window";
      "coarsen"; "root_cap"; "portfolio";
    ]
  in
  let* fields =
    match json with
    | Json.Obj fields -> Ok fields
    | Json.Null -> Ok []
    | _ -> Error "field \"options\" must be an object"
  in
  let* () =
    List.fold_left
      (fun acc (name, _) ->
        let* () = acc in
        if List.mem name known then Ok ()
        else if name = "jobs" then
          Error "option \"jobs\" is server-side (qcp serve --jobs)"
        else Error (Printf.sprintf "unknown option %S" name))
      (Ok ()) fields
  in
  let* threshold = opt_field "threshold" json Json.to_float in
  (* The default is a spanning-tree computation over the environment:
     only a request that names no threshold pays for it. *)
  let threshold =
    match threshold with
    | Some t -> t
    | None -> Environment.min_threshold_connected env
  in
  let base = Options.default ~threshold in
  let* monomorphism_limit =
    int_member "monomorphisms" json ~low:1
      ~default:base.Options.monomorphism_limit
  in
  let* lookahead =
    opt_member "lookahead" json Json.to_bool ~default:base.Options.lookahead
  in
  let* fine_tune_passes =
    int_member "fine_tune" json ~low:0 ~default:base.Options.fine_tune_passes
  in
  let* leaf_override =
    opt_member "leaf_override" json Json.to_bool
      ~default:base.Options.leaf_override
  in
  let* router =
    opt_member "router" json
      (fun v ->
        match Json.to_str v with
        | Some "bisect" -> Some (Some Options.Bisect)
        | Some "weighted" -> Some (Some Options.Bisect_weighted)
        | Some "token" -> Some (Some Options.Token)
        | Some "odd-even" -> Some (Some Options.Odd_even)
        | Some _ | None -> None)
      ~default:(Some base.Options.router)
  in
  let* router =
    match router with
    | Some r -> Ok r
    | None -> Error "unknown router (bisect, weighted, token, odd-even)"
  in
  let* reuse_cap =
    opt_member "reuse_cap" json
      (fun v ->
        match Json.to_float v with
        | Some c when c > 0.0 -> Some (Some c)
        | Some _ -> Some None (* 0 or negative disables the cap *)
        | None -> None)
      ~default:base.Options.reuse_cap
  in
  let* sequential = opt_member "sequential" json Json.to_bool ~default:false in
  let* commute_prepass =
    opt_member "commute" json Json.to_bool ~default:base.Options.commute_prepass
  in
  let* balance_boundaries =
    opt_member "balance" json Json.to_bool
      ~default:base.Options.balance_boundaries
  in
  let* window = int_member "window" json ~low:1 ~default:base.Options.window in
  let* coarsen =
    opt_member "coarsen" json Json.to_bool ~default:base.Options.coarsen
  in
  let* root_cap =
    opt_member "root_cap" json
      (fun v -> Option.map Option.some (Json.to_int v))
      ~default:base.Options.root_cap
  in
  let* () =
    match root_cap with
    | Some cap when cap < 1 -> Error (below_range "root_cap" 1)
    | Some _ | None -> Ok ()
  in
  let* portfolio =
    opt_member "portfolio" json Json.to_bool ~default:base.Options.portfolio
  in
  let options =
    {
      Options.threshold;
      monomorphism_limit;
      lookahead;
      fine_tune_passes;
      leaf_override;
      router;
      reuse_cap;
      model =
        (if sequential then Qcp_circuit.Timing.Sequential
         else Qcp_circuit.Timing.Asap);
      commute_prepass;
      balance_boundaries;
      window;
      coarsen;
      root_cap;
      jobs = 0;
      portfolio;
    }
  in
  Ok options

let parse_place ~resolve_env ~resolve_circuit json =
  let* env_spec =
    match Option.bind (Json.member "env" json) Json.to_str with
    | Some s -> Ok s
    | None -> Error "place request needs a string field \"env\""
  in
  let* circuit_spec =
    match Option.bind (Json.member "circuit" json) Json.to_str with
    | Some s -> Ok s
    | None -> Error "place request needs a string field \"circuit\""
  in
  let* env = resolve_env env_spec in
  let* circuit = resolve_circuit circuit_spec in
  let options_json =
    Option.value (Json.member "options" json) ~default:Json.Null
  in
  let* options = options_of_json env options_json in
  let* deadline =
    opt_member "deadline" json
      (fun v -> Option.map Option.some (Json.to_float v))
      ~default:None
  in
  let* telemetry = opt_member "telemetry" json Json.to_bool ~default:false in
  Ok
    (Place
       {
         env;
         circuit;
         options;
         deadline;
         telemetry;
         key = key options env circuit;
       })

let parse_line ?(resolve_env = resolve_env) ?(resolve_circuit = resolve_circuit)
    line =
  match Json.parse line with
  | Error msg -> { id = ""; request = Error ("bad JSON: " ^ msg) }
  | Ok json ->
    let id =
      match Option.bind (Json.member "id" json) Json.to_str with
      | Some id -> id
      | None -> ""
    in
    let request =
      match Option.bind (Json.member "op" json) Json.to_str with
      | None | Some "place" -> parse_place ~resolve_env ~resolve_circuit json
      | Some "ping" -> Ok Ping
      | Some "stats" -> (
        match Option.bind (Json.member "format" json) Json.to_str with
        | None | Some "json" -> Ok (Stats Stats_json)
        | Some ("prometheus" | "prom") -> Ok (Stats Stats_prometheus)
        | Some other ->
          Error (Printf.sprintf "unknown stats format %S (json, prometheus)" other))
      | Some "dump" -> Ok Dump
      | Some "shutdown" -> Ok Shutdown
      | Some other -> Error (Printf.sprintf "unknown op %S" other)
    in
    { id; request }

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let int_arr a = Json.Arr (Array.to_list (Array.map (fun v -> Json.Num (float_of_int v)) a))

let result_of_program ~telemetry program =
  let stats =
    (* Reuse the canonical stats printer rather than duplicating its field
       list; its output is JSON, so it parses back losslessly. *)
    match Json.parse (Format.asprintf "%a" Placer.pp_json program.Placer.stats) with
    | Ok json -> json
    | Error _ -> Json.Null
  in
  let placement field = function
    | Some a -> [ (field, int_arr a) ]
    | None -> []
  in
  let fidelity =
    let f = Qcp.Fidelity.estimate program in
    if f < 1.0 then [ ("fidelity", Json.Num f) ] else []
  in
  let metrics =
    if not telemetry then []
    else begin
      let b = Buffer.create 512 in
      Qcp_obs.Export.metrics_json b program.Placer.metrics;
      match Json.parse (Buffer.contents b) with
      | Ok json -> [ ("metrics", json) ]
      | Error _ -> []
    end
  in
  Json.Obj
    ([
       ("runtime", Json.Num (Placer.runtime program));
       ("runtime_seconds", Json.Num (Placer.runtime_seconds program));
       ("subcircuits", Json.Num (float_of_int (Placer.subcircuit_count program)));
       ("swap_stages", Json.Num (float_of_int (Placer.swap_stage_count program)));
       ("swap_depth", Json.Num (float_of_int (Placer.swap_depth_total program)));
       ("swap_count", Json.Num (float_of_int (Placer.swap_count_total program)));
     ]
    @ placement "initial_placement" (Placer.initial_placement program)
    @ placement "final_placement" (Placer.final_placement program)
    @ fidelity
    @ [ ("stats", stats) ]
    @ metrics)

(* [result] is pre-rendered JSON text spliced in verbatim: the cache
   stores rendered result bytes, so a hit's response body is bit-identical
   to the cold solve's without a decode/re-encode round-trip. *)
let response ~id ~status ?cached ?digest ?queue_wait ?wall ?result ?error () =
  let b = Buffer.create 256 in
  let field name json =
    Buffer.add_char b ',';
    Json.to_buffer b (Json.Str name);
    Buffer.add_char b ':';
    Json.to_buffer b json
  in
  Buffer.add_string b "{\"id\":";
  Json.to_buffer b (Json.Str id);
  field "status" (Json.Str status);
  Option.iter (fun c -> field "cached" (Json.Bool c)) cached;
  Option.iter (fun d -> field "key" (Json.Str d)) digest;
  Option.iter (fun s -> field "queue_wait_s" (Json.Num s)) queue_wait;
  Option.iter (fun s -> field "wall_s" (Json.Num s)) wall;
  Option.iter
    (fun text ->
      Buffer.add_string b ",\"result\":";
      Buffer.add_string b text)
    result;
  Option.iter (fun e -> field "error" (Json.Str e)) error;
  Buffer.add_char b '}';
  Buffer.contents b
