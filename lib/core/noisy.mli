(** Noisy (dephasing) simulation of placed programs.

    The empirical counterpart of {!Fidelity}: feed a basis input through the
    program's pulse schedule with a density-matrix simulator, applying to
    every nucleus the phase-damping accumulated since it was last driven
    (per its T2).  Where {!Fidelity.estimate} multiplies first-order
    exponentials, this computes the actual channel — the two must agree on
    ordering (better placements keep more fidelity) and roughly on
    magnitude.

    State size is [4^m] complex numbers for an [m]-nucleus environment, so
    this is limited to small molecules (m <= ~8). *)

val empirical_fidelity : ?input:int -> Placer.program -> float
(** [<ideal| rho |ideal>], where [rho] is the final physical density matrix
    after running the program on the given logical basis input (default 0)
    with dephasing, and [ideal] is the noiseless physical output (source
    circuit's result read through the final placement).  Raises
    [Invalid_argument] beyond 8 nuclei or on programs with custom gates. *)
