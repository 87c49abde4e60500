(** Random molecule-like physical environments for stress-testing the full
    pipeline (the paper's evaluation uses five hand-picked molecules; these
    generators provide unlimited structurally similar instances).

    A random molecule is a random bond tree (optionally with extra ring
    bonds) whose bond couplings are drawn from a fast band, two-bond
    couplings from a medium band, and remaining pairs from a slow band —
    matching the J-coupling structure of real spin systems. *)

val molecule :
  ?extra_bonds:int ->
  ?fast:float * float ->
  ?medium:float * float ->
  ?slow:float * float ->
  Qcp_util.Rng.t ->
  n:int ->
  Environment.t
(** [molecule rng ~n] draws an [n]-nucleus environment.  Bands are
    [(lo, hi)] delay ranges; defaults: fast 25-160, medium (graph distance
    2) 150-500, slow 1000-9000.  Every coupling is finite, so the
    environment is connectable at a large enough threshold.  Also draws T2
    times in 4000-16000. *)

val interesting_threshold : Qcp_util.Rng.t -> Environment.t -> float
(** A threshold drawn to sit between the environment's fastest and slowest
    couplings — useful for exercising multi-stage placements. *)
