(** Ternary simulation values.

    Propagation assigns 0 and 1; an unassigned node is a don't-care
    (paper Definition 2.1). *)

type t = Zero | One | Unknown

val of_bool : bool -> t
val to_bool : t -> bool option
val is_assigned : t -> bool
val equal : t -> t -> bool

val to_char : t -> char
(** ['0'], ['1'] or ['-']. *)

val pp : Format.formatter -> t -> unit
