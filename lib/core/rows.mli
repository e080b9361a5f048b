(** Packed per-function rows.

    SimGen repeatedly consults the "truth table rows" of node functions
    (paper §4). Rows — ISOP cubes of the on-set and off-set — are computed
    once per distinct truth table, packed into one int each, and shared
    across all LUTs with that function.

    A packed row over [n <= Truth_table.max_vars = 16] inputs holds a
    [care] mask in bits 0–15 (bit [i] set iff input [i] is not a
    don't-care), a [value] mask in bits 16–31 (bit [i] set iff input [i]
    is 1; always a subset of [care]) and the output in bit 32. *)

type t

type row = int

val create : unit -> t

val get : t -> Simgen_network.Truth_table.t -> row array
(** On-set rows first, then off-set rows, in {!Simgen_network.Isop.rows}
    order. Physically shared between calls with equal functions. *)

val care : row -> int
val value : row -> int
val out : row -> bool

val dc_size : nvars:int -> row -> int
(** Equation (1): don't-care inputs among the row's [nvars]. *)

val matches : row -> assigned:int -> values:int -> int -> bool
(** [matches r ~assigned ~values out] (Def. 2.2 on rows): whether the row
    agrees with a partial fanin assignment — bit [i] of [assigned] set iff
    fanin [i] has a value, bit [i] of [values] set iff that value is 1 —
    and with the output, where [out] is [0], [1], or [-1] when the output
    is unassigned. *)

type agreement = {
  mutable matched : int;  (** number of matching rows *)
  mutable fixed : int;
      (** inputs that every matching row cares about with one common
          value *)
  mutable ones : int;  (** the fixed inputs whose common value is 1 *)
  mutable out : int;
      (** the matching rows' common output ([0] or [1]), or [-1] when they
          disagree *)
}
(** What the rows matching a partial assignment agree on. With one
    matching row that is the row's own values (Def. 2.2); with several it
    is Def. 4.1. *)

val agreement : unit -> agreement
(** A zeroed record, to be filled by {!agree}. *)

val agree : row array -> assigned:int -> values:int -> int -> agreement -> unit
(** [agree rows ~assigned ~values out a] folds the rows that {!matches}
    into [a], overwriting it, in one pass and without allocating. *)

val of_cube : Simgen_network.Cube.t -> row
