(** The [qcp serve] wire protocol: line-delimited JSON requests and
    responses, plus the content-hash request keys behind the daemon's
    exact result cache.

    One request per line, one response line per request, in order:

    {v
    {"id": "r1", "op": "place", "env": "trans-crotonic",
     "circuit": "phaseest", "options": {"threshold": 100}}
    {"id": "r1", "status": "ok", "cached": false, "key": "f00..", ,
     "result": {"runtime": 6900, ...}}
    v}

    [env] and [circuit] are resolved like the CLI's arguments — molecule /
    catalog / library names and the [chain:<n>] / [grid:<r>:<c>]
    generators — except that file paths are rejected: a serving daemon
    must not read paths named by remote clients.  Multi-line payloads
    (values containing ['\n']) are instead parsed as inline [.env] /
    [.qc] documents, so clients can submit circuits the server has never
    seen.

    {b Content-hash keys.}  A place request's cache key is the canonical
    serialization of its options ({!Qcp.Options.canonical}), environment
    ({!Qcp_env.Env_format.print} of the {e resolved} value) and circuit
    ({!Qcp_circuit.Qc_format.print}).  Resolution normalizes formatting,
    comments and field order, so two requests get the same key exactly
    when they denote structurally equal instances — and the exact cache
    can answer repeats with the bit-identical result a cold solve would
    produce.  The full key is used for lookups (no truncation, so no
    false collisions); responses carry its FNV-1a 64-bit hex digest for
    observability. *)

type place = {
  env : Qcp_env.Environment.t;
  circuit : Qcp_circuit.Circuit.t;
  options : Qcp.Options.t;
  deadline : float option;
      (** The request's timeout budget in seconds, counted from arrival
          (the top-level ["deadline"] field).  Enforced out-of-band by the
          server — it is {e not} part of the content key, so one cached
          solve answers the same instance under any budget.  Portfolio
          requests honour it too: a portfolio entry's deadline abort
          aborts the whole reduce ({!Qcp.Portfolio.run}). *)
  telemetry : bool;
      (** Include the run's full metrics snapshot in the result. *)
  key : string;  (** Canonical content key (see above). *)
  digest : string;
      (** {!key_hash} of [key], computed once with the key: the response,
          the flight record and the access log share it. *)
  cache_key : string;
      (** The result cache's key: [key] itself, or [key] plus a telemetry
          marker when [telemetry] is set — the flag changes the rendered
          result (metrics present or not) without changing the instance,
          and cached bytes must match what the request would have produced
          cold.  Built once with [key], so a memoized place's hit copies
          no multi-kilobyte string. *)
}

type stats_format = Stats_json | Stats_prometheus
    (** The ["format"] member of a stats request: ["json"] (default) for
        the engine's counter object, ["prometheus"] (or ["prom"]) for the
        text exposition format rendered by {!Qcp_obs.Export.prometheus}. *)

type request =
  | Place of place
  | Ping
  | Stats of stats_format
  | Dump  (** Flight-recorder dump: the last N requests as a Chrome trace. *)
  | Shutdown

type envelope = {
  id : string;  (** Client correlation id, echoed verbatim ([""] if absent). *)
  request : (request, string) result;
      (** [Error] carries a parse/validation message; the server answers
          it with a [status = "error"] response. *)
}

val parse_line :
  ?resolve_env:(string -> (Qcp_env.Environment.t, string) result) ->
  ?resolve_circuit:(string -> (Qcp_circuit.Circuit.t, string) result) ->
  ?memo:((string -> (place, string) result) -> string -> (place, string) result) ->
  string ->
  envelope
(** Parse one request line.  [resolve_env] / [resolve_circuit] override
    the spec resolvers (the daemon passes interning resolvers so repeated
    specs share one physical environment — which is what keeps the
    adjacency and route registries hot across requests); the defaults are
    {!resolve_env} and {!resolve_circuit} below.

    [memo resolve spec] looks a place request's spec up, calling
    [resolve spec] on a miss (the default memoizes nothing).  The spec is
    an injective encoding of the exact ["env"], ["circuit"], ["options"]
    and ["telemetry"] values — strings length-prefixed, numbers by their
    bits — so a memo that stores [Ok] places answers a repeated spec
    without decoding options, building the key or hashing it.  The
    per-request ["id"] and ["deadline"] are never part of it: a memoized
    place always gets the line's own deadline. *)

val named_env : string -> (Qcp_env.Environment.t, string) result option
(** The named environments every front end accepts: molecule names,
    [chain:<n>] and [grid:<r>:<c>].  [None] when [spec] is none of these
    forms; [Some (Error _)] for a generator form with bad sizes.  Never
    touches the file system. *)

val named_circuit : string -> Qcp_circuit.Circuit.t option
(** Catalog and library circuits by name.  Never touches the file
    system. *)

val unknown_env : string -> or_else:string -> string
(** The "unknown environment" message for [spec]: every molecule name and
    generator form, then the front end's own alternative [or_else]. *)

val unknown_circuit : string -> or_else:string -> string
(** The "unknown circuit" message: catalog and library names, then
    [or_else]. *)

val resolve_env : string -> (Qcp_env.Environment.t, string) result
(** Molecule names, [chain:<n>], [grid:<r>:<c>], or an inline multi-line
    [.env] document.  No file paths. *)

val resolve_circuit : string -> (Qcp_circuit.Circuit.t, string) result
(** Catalog and library names, or an inline multi-line [.qc] document.
    No file paths. *)

val key : Qcp.Options.t -> Qcp_env.Environment.t -> Qcp_circuit.Circuit.t -> string
(** The canonical content key of a (options, env, circuit) instance.

    The environment and circuit texts are memoized by physical identity
    ([==]) in weak-keyed tables: the daemon's intern tables hand repeated
    specs the same physical value, so a repeat costs the options text and
    one concatenation, not a reprint of the instance.  A structurally
    equal but physically distinct value misses the memo and prints the
    same text, so the key bytes never depend on the memo. *)

val memo_entries : unit -> int
(** Live entries of the {!key} text memos (environments plus circuits),
    after dropping those whose value the GC has collected. *)

val key_hash : string -> string
(** FNV-1a 64-bit hex digest of a key (16 hex chars) — the [key] field of
    responses.  Allocates only the digest text. *)

val result_of_program :
  telemetry:bool -> Qcp.Placer.program -> Qcp_util.Json.t
(** The stable result object of a placed program: runtime (delay units
    and seconds), stage/SWAP counts, initial and final placements, the
    search-effort stats, fidelity when decoherence is modeled, and —
    with [telemetry] — the run's full per-request metrics snapshot
    (the PR 6 registry: phase gauges, cache counters, search counters).
    Deterministic apart from wall-clock fields ([scoring_seconds], phase
    gauges); the cache stores the rendered text, so repeats are
    byte-identical. *)

val response :
  id:string ->
  status:string ->
  ?cached:bool ->
  ?digest:string ->
  ?queue_wait:float ->
  ?wall:float ->
  ?result:string ->
  ?error:string ->
  unit ->
  string
(** Render one response line (no trailing newline).  [status] is one of
    ["ok"], ["timeout"], ["unplaceable"], ["error"], ["overloaded"],
    ["shutting-down"].  [digest] is the request key's {!key_hash},
    rendered as the ["key"] field; the server computes it once per job.
    [result] is pre-rendered JSON text (typically
    [Json.to_string (result_of_program ...)] — or the cache's stored copy
    of exactly that), spliced in verbatim so cached responses carry the
    cold solve's bytes. *)
