(* The serving layer: wire protocol, content-hash request keys, the exact
   result cache and the batching engine.

   The central contract under test is bit-identity: a cache hit must
   return byte-for-byte the response body a cold solve of the same
   request produced, at any [jobs] value, for any interleaving of
   requests — the daemon is a performance layer, never a semantic one. *)

module Json = Qcp_util.Json
module Rng = Qcp_util.Rng
module Protocol = Qcp_serve.Protocol
module Server = Qcp_serve.Server
module Engine = Server.Engine
module Result_cache = Qcp_serve.Result_cache
module Client = Qcp_serve.Client

(* ------------------------------------------------------------------ *)
(* JSON round trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2,3]";
      "{\"a\":1,\"b\":[true,null],\"c\":\"x\"}";
      "{\"nested\":{\"deep\":{\"deeper\":[{\"k\":-1.5}]}}}";
      "\"\\u00e9\\n\\t\\\"\\\\\"";
      "-0.125";
      "1e3";
    ]
  in
  List.iter
    (fun text ->
      match Json.parse text with
      | Error msg -> Alcotest.failf "%s: parse error %s" text msg
      | Ok v -> (
        let printed = Json.to_string v in
        match Json.parse printed with
        | Error msg -> Alcotest.failf "%s: reparse error %s" printed msg
        | Ok v' ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: print/parse fixpoint" text)
            true (v = v')))
    cases;
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "%S: should not parse" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "nan" ]

let test_json_numbers () =
  (* Integral values print without a fractional part (stable counters);
     non-finite values cannot arise from [parse] but must print as null
     rather than invalid JSON. *)
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Num 42.0));
  Alcotest.(check string) "neg" "-7" (Json.to_string (Json.Num (-7.0)));
  Alcotest.(check string) "frac" "0.5" (Json.to_string (Json.Num 0.5));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Num infinity));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Num Float.nan))

(* ------------------------------------------------------------------ *)
(* Content-hash keys                                                   *)
(* ------------------------------------------------------------------ *)

let place_of_line line =
  match (Protocol.parse_line line).Protocol.request with
  | Ok (Protocol.Place p) -> p
  | Ok _ -> Alcotest.failf "%s: not a place request" line
  | Error msg -> Alcotest.failf "%s: %s" line msg

(* A random request line over the option surface the protocol accepts.
   [mutate] (0 = none) flips exactly one dimension, so the derived line
   denotes a different instance. *)
let request_line rng ~mutate =
  let pick_with m base alts =
    if mutate = m then List.nth alts (Rng.int rng (List.length alts)) else base
  in
  let env = pick_with 1 "trans-crotonic" [ "acetyl-chloride"; "chain:7" ] in
  let circuit = pick_with 2 "qft6" [ "phaseest"; "qec3" ] in
  let threshold = if mutate = 3 then 150.0 else 100.0 in
  let k = if mutate = 4 then 25 else 100 in
  let lookahead = mutate <> 5 in
  let fine_tune = if mutate = 6 then 1 else 3 in
  let router = pick_with 7 "bisect" [ "weighted"; "token"; "odd-even" ] in
  let commute = mutate = 8 in
  let balance = mutate = 9 in
  let window = if mutate = 10 then ",\"window\":64" else "" in
  Printf.sprintf
    "{\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"%s\",\"options\":{\"threshold\":%g,\"monomorphisms\":%d,\"lookahead\":%b,\"fine_tune\":%d,\"router\":\"%s\",\"commute\":%b,\"balance\":%b%s}}"
    env circuit threshold k lookahead fine_tune router commute balance window

let test_keys_collide_iff_equal () =
  for seed = 1 to 50 do
    let rng = Rng.create seed in
    let base = request_line rng ~mutate:0 in
    let p1 = place_of_line base and p2 = place_of_line base in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: equal requests, equal keys" seed)
      p1.Protocol.key p2.Protocol.key;
    let mutate = 1 + Rng.int rng 10 in
    let p3 = place_of_line (request_line rng ~mutate) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: mutation %d changes the key" seed mutate)
      true
      (p1.Protocol.key <> p3.Protocol.key)
  done;
  (* Spec spelling must not matter: a named environment and its inline
     .env text denote the same instance, hence the same key. *)
  let named = place_of_line (request_line (Rng.create 0) ~mutate:0) in
  let inline_env =
    String.concat "\\n"
      (String.split_on_char '\n'
         (Qcp_env.Env_format.print Qcp_env.Molecules.trans_crotonic_acid))
  in
  let inline =
    place_of_line
      (Printf.sprintf
         "{\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"qft6\",\"options\":{\"threshold\":100,\"monomorphisms\":100,\"fine_tune\":3}}"
         inline_env)
  in
  Alcotest.(check string) "named and inline env share a key"
    named.Protocol.key inline.Protocol.key

let test_key_hash_format () =
  let h = Protocol.key_hash "qcp" in
  Alcotest.(check int) "16 hex chars" 16 (String.length h);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    h;
  Alcotest.(check bool) "distinct inputs, distinct digests" true
    (Protocol.key_hash "a" <> Protocol.key_hash "b")

(* The digest as the serve layer first shipped it: a boxed fold over the
   key's bytes.  Responses have carried these digests ever since, so the
   unboxed loop must reproduce them bit for bit. *)
let reference_key_hash s =
  let offset = 0xcbf29ce484222325L and prime = 0x100000001b3L in
  let h = ref offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Printf.sprintf "%016Lx" !h

let test_key_hash_pinned () =
  (* The published FNV-1a 64-bit test vectors. *)
  List.iter
    (fun (input, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" input)
        digest (Protocol.key_hash input))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ];
  let rng = Rng.create 22 in
  let long = String.init 2048 (fun _ -> Char.chr (Rng.int rng 256)) in
  Alcotest.(check string) "2 KB key matches the reference fold"
    (reference_key_hash long) (Protocol.key_hash long);
  let before = Gc.minor_words () in
  let digest = Protocol.key_hash long in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity digest);
  if words > 64.0 then
    Alcotest.failf "hashing 2 KB allocated %.0f minor words" words;
  (* A whole request: this digest is what the CI serve smoke expects. *)
  let p =
    place_of_line
      "{\"id\":\"r1\",\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qft6\",\"options\":{\"threshold\":100}}"
  in
  Alcotest.(check string) "request digest" "523314a175ba8dc6"
    (Protocol.key_hash p.Protocol.key)

let test_default_threshold () =
  let env_spec = "histidine" in
  let env = Option.get (Qcp_env.Molecules.by_name env_spec) in
  let line options =
    Printf.sprintf
      "{\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"qft6\"%s}" env_spec
      options
  in
  let threshold options =
    (place_of_line (line options)).Protocol.options.Qcp.Options.threshold
  in
  let connected = Qcp_env.Environment.min_threshold_connected env in
  Alcotest.(check (float 0.0)) "no options" connected (threshold "");
  Alcotest.(check (float 0.0)) "no threshold" connected
    (threshold ",\"options\":{\"lookahead\":false}");
  Alcotest.(check (float 0.0)) "null threshold" connected
    (threshold ",\"options\":{\"threshold\":null}");
  Alcotest.(check (float 0.0)) "named threshold" 250.0
    (threshold ",\"options\":{\"threshold\":250}");
  match
    (Protocol.parse_line (line ",\"options\":{\"threshold\":\"low\"}"))
      .Protocol.request
  with
  | Error msg ->
    Alcotest.(check bool) "wrong type named" true
      (Helpers.contains ~needle:"threshold" msg)
  | Ok _ -> Alcotest.fail "a string threshold should be rejected"

(* The key as it was defined before the text memo: fresh prints,
   concatenated.  The memo must never change a key's bytes. *)
let printed_key options env circuit =
  String.concat "\n"
    [
      "qcp-serve-v1";
      Qcp.Options.canonical options;
      Qcp_env.Env_format.print env;
      Qcp_circuit.Qc_format.print circuit;
    ]

(* The Table 2 rows (threshold [None]: the protocol's default) and the
   Table 3 sweep, as request lines. *)
let paper_cell_lines =
  let line env circuit threshold =
    Printf.sprintf "{\"op\":\"place\",\"env\":\"%s\",\"circuit\":\"%s\"%s}" env
      circuit
      (match threshold with
      | None -> ""
      | Some t -> Printf.sprintf ",\"options\":{\"threshold\":%g}" t)
  in
  [
    line "acetyl-chloride" "qec3" None;
    line "trans-crotonic" "qec5" (Some 100.0);
    line "histidine" "cat10" (Some 1000.0);
  ]
  @ List.concat_map
      (fun (env, circuits) ->
        List.concat_map
          (fun circuit ->
            List.map
              (fun t -> line env circuit (Some t))
              [ 50.0; 100.0; 200.0; 500.0; 1000.0; 10000.0 ])
          circuits)
      [
        ("boc-glycine", [ "phaseest" ]);
        ("iron-complex", [ "phaseest" ]);
        ("trans-crotonic", [ "phaseest"; "qft6" ]);
        ( "histidine",
          [ "phaseest"; "qft6"; "aqft9"; "steane-x/z1"; "steane-x/z2"; "aqft12" ] );
      ]

let engine_place eng line =
  match (Engine.parse_line eng line).Protocol.request with
  | Ok (Protocol.Place p) -> p
  | Ok _ -> Alcotest.failf "%s: not a place request" line
  | Error msg -> Alcotest.failf "%s: %s" line msg

(* The paper cells whose circuit fits its environment and whose threshold
   leaves the environment connected. *)
let placeable_cell_lines () =
  List.filter
    (fun line ->
      let p = place_of_line line in
      Qcp_circuit.Circuit.qubits p.Protocol.circuit
      <= Qcp_env.Environment.size p.Protocol.env
      && Qcp_env.Environment.connected_adjacency p.Protocol.env
           ~threshold:p.Protocol.options.Qcp.Options.threshold
         <> None)
    paper_cell_lines

let test_memo_keys_match_printing () =
  let eng = Engine.create Server.default_config in
  let parsed = engine_place eng in
  (* Twice each: the first parse fills the memo, the second reads it. *)
  let check_line line =
    for pass = 1 to 2 do
      let p = parsed line in
      Alcotest.(check string)
        (Printf.sprintf "%s (pass %d)" line pass)
        (printed_key p.Protocol.options p.Protocol.env p.Protocol.circuit)
        p.Protocol.key
    done
  in
  let placeable = placeable_cell_lines () in
  Alcotest.(check int) "placeable paper cells" 61 (List.length placeable);
  List.iter check_line placeable;
  for seed = 1 to 50 do
    let rng = Rng.create seed in
    check_line (request_line rng ~mutate:0);
    check_line (request_line rng ~mutate:(1 + Rng.int rng 10))
  done

let test_memo_structural_twins () =
  (* Structurally equal, physically distinct values miss the memo and
     must still print to the same key. *)
  let env_text =
    Qcp_env.Env_format.print Qcp_env.Molecules.trans_crotonic_acid
  in
  let qft6 = Option.get (Qcp_circuit.Catalog.by_name "qft6") in
  let circuit_text = Qcp_circuit.Qc_format.print qft6 in
  let e1 = Qcp_env.Env_format.parse env_text
  and e2 = Qcp_env.Env_format.parse env_text in
  let c1 = Qcp_circuit.Qc_format.parse circuit_text
  and c2 = Qcp_circuit.Qc_format.parse circuit_text in
  Alcotest.(check bool) "distinct environments" true (e1 != e2);
  Alcotest.(check bool) "distinct circuits" true (c1 != c2);
  let options = Qcp.Options.default ~threshold:100.0 in
  let expected = printed_key options e1 c1 in
  List.iter
    (fun (what, env, circuit) ->
      Alcotest.(check string) what expected (Protocol.key options env circuit))
    [
      ("first twin", e1, c1);
      ("first twin again", e1, c1);
      ("second twin", e2, c2);
      ("mixed twins", e1, c2);
      ("named originals", Qcp_env.Molecules.trans_crotonic_acid, qft6);
    ]

let test_memo_bounded () =
  (* Entries are held weakly: once the intern tables drop a value, the
     GC drops its memo entry.  Each engine interns at most 128 envs and
     128 circuits. *)
  Gc.full_major ();
  let before = Protocol.memo_entries () in
  let eng = Engine.create Server.default_config in
  for i = 1 to 300 do
    let line =
      Printf.sprintf
        "{\"op\":\"place\",\"env\":\"name memo-%d\\nnuclei x1 x2\\nsingle x1 1\\nsingle x2 1\\ncoupling x1 x2 10\\n\",\"circuit\":\"qubits 2\\nzz 0 1 %d\\n\",\"options\":{\"threshold\":100}}"
        i i
    in
    match (Engine.parse_line eng line).Protocol.request with
    | Ok (Protocol.Place _) -> ()
    | Ok _ -> Alcotest.fail "not a place request"
    | Error msg -> Alcotest.failf "inline request %d: %s" i msg
  done;
  Gc.full_major ();
  let after = Protocol.memo_entries () in
  ignore (Sys.opaque_identity eng);
  if after > before + 256 then
    Alcotest.failf "memo holds %d entries (%d before, intern cap 2 x 128)"
      after before

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let test_result_cache_lru () =
  let c = Result_cache.create 3 in
  Result_cache.add c "a" "1";
  Result_cache.add c "b" "2";
  Result_cache.add c "c" "3";
  (* Touch "a": "b" becomes the least recently used. *)
  Alcotest.(check (option string)) "hit a" (Some "1") (Result_cache.find c "a");
  Result_cache.add c "d" "4";
  Alcotest.(check (option string)) "b evicted" None (Result_cache.find c "b");
  Alcotest.(check (option string)) "a survives" (Some "1")
    (Result_cache.find c "a");
  Alcotest.(check (option string)) "d present" (Some "4")
    (Result_cache.find c "d");
  Alcotest.(check int) "bounded" 3 (Result_cache.length c);
  Alcotest.(check int) "one eviction" 1 (Result_cache.evictions c);
  let disabled = Result_cache.create 0 in
  Result_cache.add disabled "a" "1";
  Alcotest.(check (option string)) "cap 0 disables" None
    (Result_cache.find disabled "a")

(* The eviction order as first implemented: every access stamps a
   unique tick, and an insert at capacity scans for the minimum. *)
module Lru_model = struct
  type t = {
    cap : int;
    table : (string, string * int) Hashtbl.t;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cap =
    { cap; table = Hashtbl.create 16; clock = 0; hits = 0; misses = 0; evictions = 0 }

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let find t key =
    match Hashtbl.find_opt t.table key with
    | Some (value, _) ->
      Hashtbl.replace t.table key (value, tick t);
      t.hits <- t.hits + 1;
      Some value
    | None ->
      t.misses <- t.misses + 1;
      None

  let add t key value =
    if Hashtbl.mem t.table key then Hashtbl.replace t.table key (value, tick t)
    else begin
      if Hashtbl.length t.table >= t.cap then begin
        let victim =
          Hashtbl.fold
            (fun k (_, tk) acc ->
              match acc with
              | Some (_, best) when best <= tk -> acc
              | _ -> Some (k, tk))
            t.table None
        in
        Option.iter
          (fun (k, _) ->
            Hashtbl.remove t.table k;
            t.evictions <- t.evictions + 1)
          victim
      end;
      Hashtbl.add t.table key (value, tick t)
    end
end

let test_result_cache_lockstep () =
  let rng = Rng.create 2007 in
  let cache = Result_cache.create 8 and model = Lru_model.create 8 in
  for op = 1 to 10_000 do
    let key = Printf.sprintf "k%d" (Rng.int rng 16) in
    (if Rng.int rng 2 = 0 then begin
       let got = Result_cache.find cache key
       and want = Lru_model.find model key in
       if got <> want then
         Alcotest.failf "op %d: find %s = %s, model %s" op key
           (Option.value got ~default:"-") (Option.value want ~default:"-")
     end
     else
       let value = Printf.sprintf "v%d" op in
       Result_cache.add cache key value;
       Lru_model.add model key value);
    if
      Result_cache.length cache <> Hashtbl.length model.Lru_model.table
      || Result_cache.evictions cache <> model.Lru_model.evictions
    then
      Alcotest.failf "op %d: length %d/%d, evictions %d/%d" op
        (Result_cache.length cache)
        (Hashtbl.length model.Lru_model.table)
        (Result_cache.evictions cache) model.Lru_model.evictions
  done;
  Alcotest.(check int) "hits" model.Lru_model.hits (Result_cache.hits cache);
  Alcotest.(check int) "misses" model.Lru_model.misses
    (Result_cache.misses cache);
  Alcotest.(check bool) "evicted often" true (Result_cache.evictions cache > 1000)

(* ------------------------------------------------------------------ *)
(* Engine: hits bit-identical to cold solves                           *)
(* ------------------------------------------------------------------ *)

let engine ?(cache_cap = 64) ~jobs () =
  Engine.create
    { Server.default_config with Server.jobs; cache_cap }

let job_of_line eng ?(id = "t") line =
  let envelope = Engine.parse_line eng line in
  match envelope.Protocol.request with
  | Ok (Protocol.Place p) ->
    Engine.make_job eng ~id ~arrival:(Qcp_util.Clock.now ()) p
  | Ok _ -> Alcotest.failf "%s: not a place request" line
  | Error msg -> Alcotest.failf "%s: %s" line msg

(* The stable tail of a response line: everything from "result": on.
   (The prefix carries per-delivery fields: queue wait, wall time.) *)
let result_part response =
  match Helpers.substring_index response "\"result\":" with
  | Some i -> String.sub response i (String.length response - i)
  | None -> Alcotest.failf "no result in %s" response

(* For comparing *separate* solves of one instance: the placement is
   bit-identical but [scoring_seconds] is wall clock, so it is cut out.
   (Cache-hit comparisons use [result_part] unstripped — hits return the
   stored bytes, wall field included.) *)
let strip_wall s =
  match Helpers.substring_index s ",\"scoring_seconds\":" with
  | None -> s
  | Some i ->
    let j = String.index_from s i '}' in
    String.sub s 0 i ^ String.sub s j (String.length s - j)

let member_exn name response =
  match Json.parse response with
  | Error msg -> Alcotest.failf "%s: %s" response msg
  | Ok json -> (
    match Json.member name json with
    | Some v -> v
    | None -> Alcotest.failf "no %S in %s" name response)

let line_qft6 =
  "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qft6\",\"options\":{\"threshold\":100}}"

let line_phaseest =
  "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"options\":{\"threshold\":100}}"

let test_hit_bit_identical () =
  (* The acceptance criterion, at both batch parallelism levels: solve
     cold, ask again, and the hit's result bytes must equal the cold
     solve's exactly. *)
  List.iter
    (fun jobs ->
      let eng = engine ~jobs () in
      let dispatch line =
        match
          Engine.dispatch eng ~now:(Qcp_util.Clock.now ())
            [ job_of_line eng line ]
        with
        | [ r ] -> r
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)
      in
      let cold = dispatch line_qft6 in
      let hit = dispatch line_qft6 in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: cold is uncached" jobs)
        true
        (member_exn "cached" cold = Json.Bool false);
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: repeat is cached" jobs)
        true
        (member_exn "cached" hit = Json.Bool true);
      Alcotest.(check string)
        (Printf.sprintf "jobs %d: hit result bit-identical" jobs)
        (result_part cold) (result_part hit);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: one entry" jobs)
        1
        (Result_cache.length (Engine.cache eng)))
    [ 0; 2 ];
  (* And across parallelism levels: the daemon may answer a jobs=2
     request from a jobs=0 solve, so the results themselves must agree. *)
  let result_at jobs =
    let eng = engine ~jobs () in
    strip_wall
      (result_part
         (List.hd
            (Engine.dispatch eng ~now:(Qcp_util.Clock.now ())
               [ job_of_line eng line_qft6 ])))
  in
  Alcotest.(check string) "jobs 0 and 2 solves agree" (result_at 0)
    (result_at 2)

let test_batch_dedup () =
  let eng = engine ~jobs:0 () in
  let jobs =
    [
      job_of_line eng ~id:"a" line_qft6;
      job_of_line eng ~id:"b" line_phaseest;
      job_of_line eng ~id:"c" line_qft6;
    ]
  in
  match Engine.dispatch eng ~now:(Qcp_util.Clock.now ()) jobs with
  | [ ra; rb; rc ] ->
    Alcotest.(check bool) "first occurrence solves" true
      (member_exn "cached" ra = Json.Bool false);
    Alcotest.(check bool) "duplicate shares the solve" true
      (member_exn "cached" rc = Json.Bool true);
    Alcotest.(check string) "shared result identical" (result_part ra)
      (result_part rc);
    Alcotest.(check bool) "ids echoed" true
      (member_exn "id" ra = Json.Str "a"
      && member_exn "id" rb = Json.Str "b"
      && member_exn "id" rc = Json.Str "c");
    (* Two distinct keys solved; the duplicate neither solved nor probed
       the cache as a hit (it arrived before the solve completed). *)
    Alcotest.(check int) "two entries" 2 (Result_cache.length (Engine.cache eng))
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let test_concurrent_clients_deterministic () =
  (* Two daemons fed the same requests in different interleavings (one
     batch vs. request-at-a-time, different order) must report the same
     result for every request — placement results depend only on the
     request content, never on arrival order or batch shape. *)
  let lines = [ line_qft6; line_phaseest; line_qft6 ] in
  let results_of responses =
    List.map
      (fun r -> (Json.to_string (member_exn "id" r), strip_wall (result_part r)))
      responses
  in
  let eng_batch = engine ~jobs:2 () in
  let batch =
    Engine.dispatch eng_batch ~now:(Qcp_util.Clock.now ())
      (List.mapi (fun i l -> job_of_line eng_batch ~id:(string_of_int i) l) lines)
  in
  let eng_seq = engine ~jobs:0 () in
  let seq =
    (* Reverse arrival order, one dispatch per request. *)
    List.rev
      (List.mapi
         (fun i l ->
           List.hd
             (Engine.dispatch eng_seq ~now:(Qcp_util.Clock.now ())
                [ job_of_line eng_seq ~id:(string_of_int (2 - i)) l ]))
         (List.rev lines))
  in
  List.iter2
    (fun (id_b, result_b) (id_s, result_s) ->
      Alcotest.(check string) "same request" id_b id_s;
      Alcotest.(check string)
        (Printf.sprintf "request %s: same result at any interleaving" id_b)
        result_b result_s)
    (List.sort compare (results_of batch))
    (List.sort compare (results_of seq))

let test_timeout_response () =
  let eng = engine ~jobs:0 () in
  let line =
    "{\"id\":\"t\",\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"deadline\":0}"
  in
  match Engine.dispatch eng ~now:(Qcp_util.Clock.now ()) [ job_of_line eng line ] with
  | [ r ] ->
    Alcotest.(check bool) "status timeout" true
      (member_exn "status" r = Json.Str "timeout");
    Alcotest.(check bool) "nothing cached" true
      (Result_cache.length (Engine.cache eng) = 0);
    (* The same request with budget must still place (and not be poisoned
       by the timed-out attempt). *)
    let ok =
      List.hd
        (Engine.dispatch eng ~now:(Qcp_util.Clock.now ())
           [ job_of_line eng line_phaseest ])
    in
    Alcotest.(check bool) "subsequent solve ok" true
      (member_exn "status" ok = Json.Str "ok")
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

(* A portfolio request honours its deadline like any other request: an
   expired budget is shed to "timeout" and nothing is cached. *)
let test_portfolio_timeout () =
  let eng = engine ~jobs:0 () in
  let line =
    "{\"id\":\"p\",\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"phaseest\",\"deadline\":0,\"options\":{\"threshold\":100,\"portfolio\":true}}"
  in
  match
    Engine.dispatch eng ~now:(Qcp_util.Clock.now ()) [ job_of_line eng line ]
  with
  | [ r ] ->
    Alcotest.(check bool) "status timeout" true
      (member_exn "status" r = Json.Str "timeout");
    let stats = Result.get_ok (Json.parse (Engine.stats_json eng)) in
    Alcotest.(check bool) "counted as shed" true
      (Json.member "shed" stats = Some (Json.Num 1.0));
    Alcotest.(check int) "nothing cached" 0
      (Result_cache.length (Engine.cache eng))
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let test_request_validation () =
  let eng = engine ~jobs:0 () in
  let expect_error line needle =
    match (Engine.parse_line eng line).Protocol.request with
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s" line needle)
        true
        (Helpers.contains ~needle msg)
    | Ok _ -> Alcotest.failf "%s: should be rejected" line
  in
  expect_error "{\"op\":\"place\",\"circuit\":\"qft6\"}" "env";
  expect_error "{\"op\":\"place\",\"env\":\"nope\",\"circuit\":\"qft6\"}"
    "unknown environment";
  expect_error
    "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{\"jobs\":4}}"
    "server-side";
  expect_error
    "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{\"spill\":\"x\"}}"
    "spill";
  expect_error
    "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{\"typo\":1}}"
    "unknown option";
  (* The memo and the pruning are not options: the only exhaustive mode
     is the test oracle {!Qcp.Placer.place_reference}.  Nor is a learned
     bias, a strategy selection or a race deadline: a response depends on
     its request alone.  The deleted cross-stage refinement pass count is
     rejected by name too. *)
  List.iter
    (fun field ->
      expect_error
        (Printf.sprintf
           "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{%S:false}}"
           field)
        (Printf.sprintf "unknown option %S" field))
    [
      "score_cache"; "bounded_search"; "learn"; "deadline"; "strategies";
      "vcycle";
    ];
  expect_error "{\"op\":\"dance\"}" "unknown op";
  expect_error "not json" "bad JSON"

(* An integer option out of range is an error, not a silent clamp: a
   clamped request would get a key of its own for the clamped result. *)
let test_window_validation () =
  let eng = engine ~jobs:0 () in
  let line options =
    Printf.sprintf
      "{\"op\":\"place\",\"env\":\"chain:6\",\"circuit\":\"qft6\",\"options\":{%s}}"
      options
  in
  List.iter
    (fun (field, bad) ->
      List.iter
        (fun v ->
          match
            (Engine.parse_line eng (line (Printf.sprintf "%S:%d" field v)))
              .Protocol.request
          with
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %d rejected by name" field v)
              true
              (Helpers.contains ~needle:field msg)
          | Ok _ -> Alcotest.failf "%s %d: should be rejected" field v)
        bad)
    [
      ("window", [ 0; -3 ]);
      ("monomorphisms", [ 0; -1 ]);
      ("root_cap", [ 0; -2 ]);
      ("fine_tune", [ -1 ]);
    ];
  Alcotest.(check string) "window 1 is the default key"
    (place_of_line (line "")).Protocol.key
    (place_of_line (line "\"window\":1")).Protocol.key

(* ------------------------------------------------------------------ *)
(* Engine: the place memo                                              *)
(* ------------------------------------------------------------------ *)

(* A response without its per-delivery fields ([queue_wait_s] and
   [wall_s], which sit between the key and the result or error). *)
let strip_timing response =
  match Helpers.substring_index response ",\"queue_wait_s\":" with
  | None -> response
  | Some i ->
    let rest = String.sub response i (String.length response - i) in
    let j =
      match Helpers.substring_index rest ",\"result\":" with
      | Some j -> j
      | None -> (
        match Helpers.substring_index rest ",\"error\":" with
        | Some j -> j
        | None -> Alcotest.failf "no result or error in %s" response)
    in
    String.sub response 0 i ^ String.sub rest j (String.length rest - j)

(* A request line with one more top-level member. *)
let with_field line field =
  String.sub line 0 (String.length line - 1) ^ "," ^ field ^ "}"

let dispatch_one eng place =
  match
    Engine.dispatch eng ~now:(Qcp_util.Clock.now ())
      [ Engine.make_job eng ~id:"m" ~arrival:(Qcp_util.Clock.now ()) place ]
  with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let test_memo_hit_exact () =
  (* Every placeable paper cell, three ways: twice through one engine
     (the second parse is a memo hit) and once through a fresh engine.
     The three places must carry one key and one digest, and the memo
     hit's response must equal the fresh parse's byte for byte. *)
  let eng = engine ~jobs:0 () in
  let placeable = placeable_cell_lines () in
  Alcotest.(check int) "placeable paper cells" 61 (List.length placeable);
  List.iter
    (fun line ->
      let first = engine_place eng line in
      let cold = dispatch_one eng first in
      let again = engine_place eng line in
      let fresh = engine_place (engine ~jobs:0 ()) line in
      Alcotest.(check bool) (line ^ ": second parse is a memo hit") true
        (again.Protocol.key == first.Protocol.key);
      Alcotest.(check bool) (line ^ ": fresh engine builds its own key") true
        (fresh.Protocol.key != first.Protocol.key);
      List.iter
        (fun (what, p) ->
          Alcotest.(check string) (line ^ ": key, " ^ what)
            (printed_key p.Protocol.options p.Protocol.env p.Protocol.circuit)
            p.Protocol.key;
          Alcotest.(check string) (line ^ ": digest, " ^ what)
            (Protocol.key_hash p.Protocol.key) p.Protocol.digest)
        [ ("first", first); ("memo hit", again); ("fresh", fresh) ];
      Alcotest.(check string) (line ^ ": memo hit key = fresh key")
        fresh.Protocol.key again.Protocol.key;
      let hit = dispatch_one eng again and fresh_hit = dispatch_one eng fresh in
      Alcotest.(check bool) (line ^ ": cold solve ok") true
        (member_exn "status" cold = Json.Str "ok"
        && member_exn "cached" cold = Json.Bool false
        && member_exn "cached" hit = Json.Bool true);
      Alcotest.(check bool) (line ^ ": key field") true
        (member_exn "key" cold = member_exn "key" hit);
      Alcotest.(check string) (line ^ ": hit result = cold result")
        (result_part cold) (result_part hit);
      Alcotest.(check string) (line ^ ": memo hit response = fresh parse's")
        (strip_timing fresh_hit) (strip_timing hit))
    placeable

let threshold_line t =
  Printf.sprintf
    "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qft6\",\"options\":{\"threshold\":%s}}"
    t

let test_memo_exact_numbers () =
  (* Thresholds that print alike in [%.12g], or compare equal, are still
     distinct doubles with distinct canonical keys.  The second line of
     each pair comes after the first has been memoized. *)
  List.iter
    (fun (a, b) ->
      let eng = engine ~jobs:0 () in
      let pa = engine_place eng (threshold_line a) in
      let pb = engine_place eng (threshold_line b) in
      let fresh = place_of_line (threshold_line b) in
      let what = Printf.sprintf "thresholds %s and %s" a b in
      Alcotest.(check bool) (what ^ ": distinct doubles") false
        (Int64.equal
           (Int64.bits_of_float pa.Protocol.options.Qcp.Options.threshold)
           (Int64.bits_of_float pb.Protocol.options.Qcp.Options.threshold));
      Alcotest.(check bool) (what ^ ": distinct keys") true
        (pa.Protocol.key <> pb.Protocol.key);
      Alcotest.(check bool) (what ^ ": distinct digests") true
        (pa.Protocol.digest <> pb.Protocol.digest);
      Alcotest.(check string) (what ^ ": second key = fresh parse")
        fresh.Protocol.key pb.Protocol.key)
    [ ("100", "100.00000000000001"); ("0.0", "-0.0") ]

let test_memo_per_request_fields () =
  let with_deadline d = with_field line_qft6 ("\"deadline\":" ^ d) in
  (* Deadlines are per request: each line keeps its own budget, in
     either order, on the same spec. *)
  let eng = engine ~jobs:0 () in
  let deadline line = (engine_place eng line).Protocol.deadline in
  Alcotest.(check (option (float 0.0))) "no deadline" None (deadline line_qft6);
  Alcotest.(check (option (float 0.0))) "deadline 60" (Some 60.0)
    (deadline (with_deadline "60"));
  Alcotest.(check (option (float 0.0))) "deadline 5" (Some 5.0)
    (deadline (with_deadline "5"));
  Alcotest.(check (option (float 0.0))) "no deadline again" None
    (deadline line_qft6);
  let status eng line =
    member_exn "status" (dispatch_one eng (engine_place eng line))
  in
  let eng = engine ~jobs:0 () in
  Alcotest.(check bool) "expired budget first: timeout" true
    (status eng (with_deadline "0") = Json.Str "timeout");
  Alcotest.(check bool) "then no budget: solved" true
    (status eng line_qft6 = Json.Str "ok");
  Alcotest.(check bool) "then an expired budget again: timeout" true
    (status eng (with_deadline "0") = Json.Str "timeout");
  Alcotest.(check bool) "then a live budget: ok" true
    (status eng (with_deadline "60") = Json.Str "ok");
  (* Errors are derived afresh: an invalid line on a memoized spec is
     still answered with its own error, every time. *)
  let expect_error line needle =
    for pass = 1 to 2 do
      match (Engine.parse_line eng line).Protocol.request with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (pass %d) mentions %s" line pass needle)
          true
          (Helpers.contains ~needle msg)
      | Ok _ -> Alcotest.failf "%s (pass %d): should be rejected" line pass
    done
  in
  let with_options options =
    Printf.sprintf
      "{\"op\":\"place\",\"env\":\"trans-crotonic\",\"circuit\":\"qft6\",\"options\":{\"threshold\":100%s}}"
      options
  in
  expect_error (with_options ",\"typo\":1") "unknown option";
  expect_error (with_options ",\"window\":0") "window";
  expect_error (with_deadline "\"soon\"") "deadline";
  expect_error (with_field line_qft6 "\"telemetry\":\"yes\"") "telemetry";
  Alcotest.(check bool) "valid line still answered" true
    (status eng line_qft6 = Json.Str "ok")

let test_memo_hit_allocation () =
  (* A memo hit's parse and job cost the line's JSON tree and a few
     records (~490 minor words): at most 580, about half of what the
     full path (options decode, canonical text, the key and its digest)
     took for this line, 1,036.  The key alone is over 250 words, so
     rebuilding it cannot fit. *)
  let eng = engine ~jobs:0 () in
  let line =
    "{\"id\":\"a\",\"op\":\"place\",\"env\":\"histidine\",\"circuit\":\"aqft9\",\"options\":{\"threshold\":1000}}"
  in
  let hit () =
    let envelope = Engine.parse_line eng line in
    match envelope.Protocol.request with
    | Ok (Protocol.Place p) ->
      Engine.make_job eng ~id:envelope.Protocol.id ~arrival:0.0 p
    | Ok _ | Error _ -> Alcotest.fail "not a place request"
  in
  let warm = hit () in
  ignore (Sys.opaque_identity (hit ()));
  let key_words = String.length warm.Engine.j_place.Protocol.key / 8 in
  Alcotest.(check bool) "key is over 250 words" true (key_words > 250);
  let before = Gc.minor_words () in
  let job = hit () in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity job);
  if words > 580.0 then
    Alcotest.failf "a memo hit allocated %.0f minor words (key: %d words)"
      words key_words;
  (* A telemetry hit's dispatch looks the result up under a key with a
     telemetry marker.  That key is built once with the place, so the hit
     allocates what a plain hit does, plus rendering its longer response:
     a per-dispatch copy of the 2,173-byte key (over 256 words, straight
     to the major heap) fails.  The major-heap counters also move with
     whatever collection work falls inside the call, so each figure is the
     least of five calls. *)
  let allocated f =
    let once () =
      let minor0, promoted0, major0 = Gc.counters () in
      let r = f () in
      let minor1, promoted1, major1 = Gc.counters () in
      ignore (Sys.opaque_identity r);
      minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
    in
    List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))
  in
  let dispatch_words line =
    let dispatch () =
      Engine.dispatch eng ~now:0.0 [ job_of_line eng ~id:"a" line ]
    in
    ignore (dispatch ());
    ignore (dispatch ());
    let words = allocated dispatch in
    let text =
      let r = result_part (List.hd (dispatch ())) in
      String.sub r 9 (String.length r - 10)
    in
    let render =
      allocated (fun () ->
          Protocol.response ~id:"a" ~status:"ok" ~cached:true
            ~digest:"523314a175ba8dc6" ~queue_wait:1e-6 ~wall:1e-6 ~result:text ())
    in
    words -. render
  in
  let plain = dispatch_words line in
  let telemetry =
    dispatch_words
      "{\"id\":\"a\",\"op\":\"place\",\"env\":\"histidine\",\"circuit\":\"aqft9\",\"options\":{\"threshold\":1000},\"telemetry\":true}"
  in
  if telemetry > plain +. 64.0 then
    Alcotest.failf
      "a telemetry hit allocated %.0f words besides its response, a plain hit %.0f \
       (key: %d words)"
      telemetry plain key_words

(* ------------------------------------------------------------------ *)
(* Socket daemon smoke                                                 *)
(* ------------------------------------------------------------------ *)

let temp_socket name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "qcp-%s-%d.sock" name (Unix.getpid ()))

let with_daemon name config f =
  let path = temp_socket name in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let config =
    { config with Server.socket_path = Some path; install_signals = false }
  in
  let daemon = Domain.spawn (fun () -> Server.serve config) in
  Fun.protect ~finally:(fun () -> Domain.join daemon) @@ fun () ->
  let client = Client.connect (Client.Unix_socket path) in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () -> f client

let test_socket_roundtrip () =
  with_daemon "smoke" Server.default_config @@ fun client ->
  let ping = Client.request client "{\"id\":\"p\",\"op\":\"ping\"}" in
  Alcotest.(check bool) "ping ok" true
    (member_exn "status" ping = Json.Str "ok");
  let cold = Client.request client line_qft6 in
  let hit = Client.request client line_qft6 in
  Alcotest.(check bool) "cold ok" true
    (member_exn "status" cold = Json.Str "ok");
  Alcotest.(check bool) "repeat cached" true
    (member_exn "cached" hit = Json.Bool true);
  Alcotest.(check string) "hit bytes identical over the wire"
    (result_part cold) (result_part hit);
  let stats = Client.request client "{\"op\":\"stats\"}" in
  let cache_stats =
    Option.get (Json.member "cache" (member_exn "result" stats))
  in
  Alcotest.(check (option Alcotest.int)) "one cache hit" (Some 1)
    (Option.bind (Json.member "hits" cache_stats) Json.to_int);
  let bye = Client.request client "{\"op\":\"shutdown\"}" in
  Alcotest.(check bool) "shutdown acknowledged" true
    (member_exn "status" bye = Json.Str "ok")

let test_socket_overload () =
  with_daemon "overload"
    { Server.default_config with Server.queue_cap = 0 }
  @@ fun client ->
  let r = Client.request client line_qft6 in
  Alcotest.(check bool) "overloaded" true
    (member_exn "status" r = Json.Str "overloaded");
  ignore (Client.request client "{\"op\":\"shutdown\"}" : string)

(* Request bytes split across reads in every way must be answered
   exactly as whole lines are: the daemon's line splitter is a transport
   detail.  Each test first asks over the client (a cold solve, then a
   hit), then sends the same lines over a raw connection in pieces. *)
let with_raw name f =
  with_daemon name Server.default_config @@ fun client ->
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX (temp_socket name));
  let ic = Unix.in_channel_of_descr fd in
  let send s =
    let pos = ref 0 in
    while !pos < String.length s do
      pos := !pos + Unix.write_substring fd s !pos (String.length s - !pos)
    done
  in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      ignore (Client.request client "{\"op\":\"shutdown\"}" : string))
    (fun () -> f client send (fun () -> input_line ic))

let whole_hit client line =
  ignore (Client.request client line : string);
  Client.request client line

let test_socket_byte_writes () =
  with_raw "bytes" @@ fun client send recv ->
  let line = with_field line_qft6 "\"id\":\"b\"" in
  let expected = whole_hit client line in
  (* Blank lines first: they are skipped, never answered. *)
  String.iter
    (fun c ->
      send (String.make 1 c);
      Unix.sleepf 0.0002)
    ("\r\n \t\n" ^ line ^ "\n");
  Alcotest.(check string) "one byte per write = the whole line"
    (strip_timing expected) (strip_timing (recv ()))

let test_socket_split_reads () =
  with_raw "split" @@ fun client send recv ->
  let line_a = with_field line_qft6 "\"id\":\"a\""
  and line_b = with_field line_phaseest "\"id\":\"b\"" in
  let expected_a = whole_hit client line_a in
  let expected_b = whole_hit client line_b in
  let check what =
    let got_a = recv () in
    let got_b = recv () in
    Alcotest.(check string) (what ^ ": first") (strip_timing expected_a)
      (strip_timing got_a);
    Alcotest.(check string) (what ^ ": second") (strip_timing expected_b)
      (strip_timing got_b)
  in
  (* The second request straddles two reads. *)
  let cut = String.length line_b / 2 in
  send (line_a ^ "\n" ^ String.sub line_b 0 cut);
  Unix.sleepf 0.05;
  send (String.sub line_b cut (String.length line_b - cut) ^ "\n");
  check "split across reads";
  (* Both in one write, with a blank line between. *)
  send (line_a ^ "\n\n" ^ line_b ^ "\n");
  check "one write"

(* ------------------------------------------------------------------ *)
(* Named specs: one resolver for the CLI and the serve protocol         *)
(* ------------------------------------------------------------------ *)

(* The CLI binary: beside the test under [dune runtest], under _build when
   the suite runs from the repository root. *)
let qcp_exe =
  if Sys.file_exists "../bin/qcp_cli.exe" then "../bin/qcp_cli.exe"
  else "_build/default/bin/qcp_cli.exe"

(* [qcp gen KIND SPEC]: exit code, stdout, stderr. *)
let qcp_gen kind spec =
  let out = Filename.temp_file "qcp-gen" ".out"
  and err = Filename.temp_file "qcp-gen" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let code =
    Sys.command
      (Filename.quote_command qcp_exe [ "gen"; kind; spec ] ~stdout:out
         ~stderr:err)
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (code, read out, read err)

(* Every molecule, catalog and library name and the generator forms, bad
   sizes included, resolve to the same text (or the same error) through
   the CLI, which may also read files, and the serve protocol, which may
   also parse inline text. *)
let test_named_specs_resolve_alike () =
  let check kind spec served print =
    let code, out, err = qcp_gen kind spec in
    match served with
    | Ok v ->
      Alcotest.(check int) (spec ^ ": cli exit") 0 code;
      Alcotest.(check string) (spec ^ ": cli text = served text") (print v) out
    | Error msg ->
      Alcotest.(check int) (spec ^ ": cli exit") 1 code;
      Alcotest.(check string) (spec ^ ": cli error = served error") (msg ^ "\n") err
  in
  let env spec =
    check "env" spec (Protocol.resolve_env spec) Qcp_env.Env_format.print
  and circuit spec =
    check "circuit" spec (Protocol.resolve_circuit spec) Qcp_circuit.Qc_format.print
  in
  List.iter env Qcp_env.Molecules.names;
  List.iter env [ "chain:1"; "chain:6"; "grid:2:3"; "chain:0"; "chain:x"; "grid:0:2" ];
  List.iter circuit (Qcp_circuit.Catalog.names @ Qcp_circuit.Library.names);
  (* Anything else is each front end's own business: a file for the CLI,
     inline text for the daemon, each named in its own hint. *)
  let unknown kind spec served ~cli_hint ~serve_hint =
    let code, _, err = qcp_gen kind spec in
    Alcotest.(check int) (spec ^ ": cli exit") 1 code;
    Alcotest.(check bool) (spec ^ ": cli hint") true (Helpers.contains ~needle:cli_hint err);
    match served with
    | Ok _ -> Alcotest.failf "%s: served" spec
    | Error msg ->
      Alcotest.(check bool) (spec ^ ": serve hint") true
        (Helpers.contains ~needle:serve_hint msg)
  in
  List.iter
    (fun spec ->
      unknown "env" spec (Protocol.resolve_env spec) ~cli_hint:"or give a .env file path"
        ~serve_hint:"or inline .env text")
    [ "nosuch"; "grid:2" ];
  unknown "circuit" "nosuch" (Protocol.resolve_circuit "nosuch")
    ~cli_hint:"or a .qc/.qasm file" ~serve_hint:"or inline .qc text"

let suite =
  [
    Alcotest.test_case "json print/parse fixpoint" `Quick test_json_roundtrip;
    Alcotest.test_case "json number rendering" `Quick test_json_numbers;
    Alcotest.test_case "keys collide iff equal over 50 seeds" `Quick
      test_keys_collide_iff_equal;
    Alcotest.test_case "key digest format" `Quick test_key_hash_format;
    Alcotest.test_case "result cache LRU deterministic" `Quick
      test_result_cache_lru;
    Alcotest.test_case "hit bit-identical to cold solve (jobs 0/2)" `Quick
      test_hit_bit_identical;
    Alcotest.test_case "batch dedup solves once" `Quick test_batch_dedup;
    Alcotest.test_case "interleaving never changes results" `Quick
      test_concurrent_clients_deterministic;
    Alcotest.test_case "deadline expiry yields timeout" `Quick
      test_timeout_response;
    Alcotest.test_case "request validation" `Quick test_request_validation;
    Alcotest.test_case "window below 1 rejected" `Quick test_window_validation;
    Alcotest.test_case "socket daemon round trip" `Quick test_socket_roundtrip;
    Alcotest.test_case "admission control overload" `Quick test_socket_overload;
    Alcotest.test_case "key digest pinned" `Quick test_key_hash_pinned;
    Alcotest.test_case "default threshold only when absent" `Quick
      test_default_threshold;
    Alcotest.test_case "memoized keys equal printed keys" `Quick
      test_memo_keys_match_printing;
    Alcotest.test_case "memo misses on structural twins" `Quick
      test_memo_structural_twins;
    Alcotest.test_case "memo bounded by intern tables" `Quick
      test_memo_bounded;
    Alcotest.test_case "result cache LRU matches tick scan" `Quick
      test_result_cache_lockstep;
    Alcotest.test_case "portfolio deadline expiry yields timeout" `Quick
      test_portfolio_timeout;
    Alcotest.test_case "memo hit = fresh parse over the paper cells" `Quick
      test_memo_hit_exact;
    Alcotest.test_case "memo keys exact on numbers" `Quick
      test_memo_exact_numbers;
    Alcotest.test_case "memo keeps deadlines and errors per request" `Quick
      test_memo_per_request_fields;
    Alcotest.test_case "memo hit allocation" `Quick test_memo_hit_allocation;
    Alcotest.test_case "socket request one byte per write" `Quick
      test_socket_byte_writes;
    Alcotest.test_case "socket requests split across reads" `Quick
      test_socket_split_reads;
    Alcotest.test_case "named specs resolve alike in cli and serve" `Quick
      test_named_specs_resolve_alike;
  ]
