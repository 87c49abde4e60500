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

let test_memo_keys_match_printing () =
  let eng = Engine.create Server.default_config in
  let parsed line =
    match (Engine.parse_line eng line).Protocol.request with
    | Ok (Protocol.Place p) -> p
    | Ok _ -> Alcotest.failf "%s: not a place request" line
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
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
  let placeable =
    List.filter
      (fun line ->
        let p = parsed line in
        Qcp_circuit.Circuit.qubits p.Protocol.circuit
        <= Qcp_env.Environment.size p.Protocol.env
        && Qcp_env.Environment.connected_adjacency p.Protocol.env
             ~threshold:p.Protocol.options.Qcp.Options.threshold
           <> None)
      paper_cell_lines
  in
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
  ]
