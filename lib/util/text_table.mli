(** Plain-text table rendering for experiment reports.

    Produces boxed ASCII tables similar to the layout of the paper's
    Tables 1-4: headers centred, data cells left-aligned. *)

type t

val create : ?title:string -> string list -> t
(** [create ~title headers] starts a table with one header row. *)

val add_row : t -> string list -> unit
(** Append a data row.  Rows shorter than the header are padded with [""]. *)

val render : t -> string
(** The boxed ASCII rendering, newline-terminated. *)
