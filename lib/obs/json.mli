(** A minimal JSON tree with a {e canonical} printer, sufficient for the
    NDJSON trace format, the stats snapshots and the benchmark's records —
    no external dependency.

    Canonical means: no whitespace, object fields in the order given,
    strings escaped with the shortest standard escape, and floats
    printed as fixed-point with up to six decimals, trailing zeros
    trimmed (one decimal always kept, so a float never reads back as an
    integer).  Because the printer is canonical,
    [to_string (of_string (to_string v)) = to_string v] holds for every
    value the library itself produced — the byte-identity the trace
    round-trip test pins. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Carries a human-readable position and cause. *)

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

(** {2 Scalar writers} — the printer's own pieces, for encoders that
    write a known shape straight into a buffer without building a {!t}.
    Each appends exactly what {!to_buffer} appends for the same scalar. *)

val add_string : Buffer.t -> string -> unit
(** A quoted, escaped string; copied verbatim when nothing needs
    escaping. *)

val add_int : Buffer.t -> int -> unit

val add_float : Buffer.t -> float -> unit
(** The canonical float; ["null"] for nan and infinities. *)

val of_string : string -> t
(** Parse one JSON value; trailing input (other than whitespace) is an
    error.  Numbers without ['.'], ['e'] or ['E'] parse as {!Int}.
    @raise Parse_error on malformed input. *)

(** {2 Accessors} — total lookups for the trace reader. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k]; [None] on missing
    keys and non-objects. *)

val to_int_opt : t -> int option
(** [Int n] gives [Some n]; everything else [None]. *)

val to_float_opt : t -> float option
(** [Float f] and [Int n] both succeed — JSON does not distinguish. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
