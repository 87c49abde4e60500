(** Small list/array helpers shared across the library. *)

val range : int -> int list
(** [range n] is [\[0; 1; ...; n-1\]]. *)

val range_from : int -> int -> int list
(** [range_from lo hi] is [\[lo; ...; hi-1\]]. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (or fewer if the list is short). *)

val drop : int -> 'a list -> 'a list
(** The list without its first [n] elements. *)

val min_by : ('a -> float) -> 'a list -> 'a option
(** Element minimizing the key; [None] on an empty list. *)

val min_by_key : ('a -> float) -> 'a list -> ('a * float) option
(** Like {!min_by} but also returns the winning key, so callers needing the
    score do not have to evaluate the (possibly expensive) key again.  Ties
    keep the earliest element, exactly as {!min_by}. *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct positions. *)
