(** Persistent work-stealing pool over OCaml 5 domains.

    The pool fixes the per-call [Domain.spawn] waste of the earlier parallel
    sections: helper domains are spawned lazily on first parallel demand,
    reused across every subsequent placement, and joined cleanly through an
    [at_exit] hook, so [dune runtest] never leaks a domain.

    Work is distributed by chunked atomic-index stealing: a parallel region
    publishes one batch descriptor, every participating domain (the caller
    plus any recruited helpers) claims slot indices with
    [Atomic.fetch_and_add], and the batch completes when every slot has run.
    There is no per-slot queue node and no Chase-Lev deque to maintain; for
    the library's workloads (hundreds of candidate scores per sweep) the
    single shared counter is never contended enough to matter.

    {b Deterministic reduction contract.}  [map_reduce] evaluates [map] into
    a slot array indexed by input position and folds the slots sequentially
    in index order on the caller, so its result is a pure function of the
    input order — independent of how slots interleave across domains.
    Exceptions raised by a slot are re-raised on the caller; when several
    slots raise in one batch, which exception propagates is unspecified.

    {b Nested-use guard.}  Entering a parallel region from inside a pool
    task would deadlock a fixed-size pool, so every entry point detects
    (via domain-local state) that it is running inside a pool task and
    falls back to inline sequential execution.  Outer parallelism therefore
    silently serializes inner layers — e.g. a [Portfolio.place_batch] job runs
    its candidate sweeps sequentially — which preserves both progress and
    bit-identical results. *)

type t
(** A pool of helper domains plus a queue of pending parallel regions. *)

val create : unit -> t
(** A fresh, empty pool.  Helpers are spawned on demand by the entry points
    below, never eagerly.  Intended for tests; library code shares the
    process-wide pool from {!get}. *)

val get : unit -> t
(** The process-wide shared pool, created on first use. *)

val helpers : t -> int
(** Number of helper domains currently alive in [pool] (excludes the
    caller).  Grows on demand up to the largest [jobs - 1] requested, never
    shrinks until {!shutdown}. *)

val env_jobs : unit -> int
(** Parallelism requested by the [QCP_JOBS] environment variable: the
    parsed value when it is a non-negative integer, 0 (sequential)
    otherwise or when unset.  Read once and memoized. *)

val parallel_for : t -> jobs:int -> body:(worker:int -> int -> unit) -> int -> unit
(** [parallel_for pool ~jobs ~body total] runs [body ~worker i] for every
    [i] in [0 .. total - 1], using at most [jobs] domains (the caller plus
    up to [jobs - 1] helpers).  [worker] is a dense id in [0 .. jobs - 1],
    unique per participating domain within this call, for indexing
    per-domain scratch slots; a given [worker] id never runs two slots
    concurrently.  With [jobs <= 1], inside a pool task, or after
    {!shutdown}, the slots run inline in index order with [worker = 0].
    Returns when every slot has finished; re-raises a slot's exception. *)

val map_reduce :
  t ->
  jobs:int ->
  map:(worker:int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  init:'a ->
  int ->
  'a
(** [map_reduce pool ~jobs ~map ~combine ~init total] computes
    [combine (... (combine init (map 0)) ...) (map (total - 1))]: the maps
    run in parallel as in {!parallel_for}, the fold runs sequentially on
    the caller in index order.  The result is a pure function of the input
    order regardless of steal interleaving (assuming [map] is pure). *)

val both : t -> jobs:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both pool ~jobs f g] evaluates [f ()] and [g ()], possibly in
    parallel, and returns both results.  [g] is published for a helper to
    steal while the caller runs [f]; if no helper claimed [g] by the time
    [f] finishes, the caller reclaims and runs it inline.  Unlike the
    sequential [(f (), g ())], [g] always runs even when [f] raises (its
    effects still happen); [f]'s exception then takes precedence over
    [g]'s.  With [jobs <= 1], inside a pool task, or after {!shutdown},
    this is exactly [let a = f () in let b = g () in (a, b)]. *)

val shutdown : t -> unit
(** Wake and join every helper domain.  Subsequent parallel calls on the
    pool run sequentially inline.  The shared {!get} pool is shut down
    automatically via [at_exit]; tests exercising {!create} may call this
    directly.  Idempotent. *)
