(** One SWAP gate as one [int]: its two vertices and the level it holds in
    the network a router generated.  A routed SWAP network is stored and
    timed as an [int array] of these words in generation order
    ({!Timing.stage_advance_swaps}, [Qcp_route.Swap_network.sequence]),
    one word per swap.

    Each field takes 21 bits: vertex [u] the low ones, then [v], then the
    level, so every field must lie in [0 .. 2^21 - 1]. *)

val make : int -> int -> level:int -> int
(** [make u v ~level].  Raises [Invalid_argument] when a field is out of
    range. *)

val u : int -> int

val v : int -> int

val level : int -> int
