(** The repo's one JSON reader and writer: telemetry events, the daemon
    protocol, lint diagnostics, certificates and the bench's BENCH files
    are all built as {!t} values and printed by {!write}.

    The printer emits no whitespace and prints floats as [%.6f], so a
    value's text is a pure function of the value. JSON has no infinities
    or NaN: a non-finite [Float] prints as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in print order *)

val write : Buffer.t -> t -> unit
(** Append the value's text. Strings are escaped as follows: double quote
    and backslash are backslash-escaped, newline, carriage return and tab
    use their short escapes, and every other byte below 0x20 becomes a
    [\u00XX] escape. All other bytes pass through unchanged. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** The full JSON value grammar, with surrounding whitespace. A [\uXXXX]
    escape is decoded to UTF-8 and a surrogate pair to one code point; a
    lone surrogate is an error. Numbers follow RFC 8259 strictly, so
    [+5], [01], [1.] and [-.5] are errors, and so is a number that
    overflows to infinity, such as [1e400]. A number is an [Int] when it
    reads as one, a [Float] otherwise. Never raises. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)

val int_member : string -> t -> int option
val string_member : string -> t -> string option
(** Typed field lookups: [None] when absent or of another type. *)
