(** The one JSON string escaper shared by every JSON writer in the repo
    (telemetry events, the daemon protocol, lint diagnostics). *)

val escape : Buffer.t -> string -> unit
(** Append [s] to the buffer as the body of a JSON string literal,
    without the surrounding quotes: double quote and backslash are
    backslash-escaped, newline, carriage return and tab use their short
    escapes, and every other byte below 0x20 becomes a [\u00XX] escape.
    All other bytes pass through unchanged. *)
