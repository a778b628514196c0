(** The one JSON emitter behind every machine-readable report: bench
    records ([BENCH_*.json]), transcript certificates and lint findings.

    Write-only by design — nothing in the engine parses JSON. Strings are
    escaped per RFC 8259: the double quote, the backslash, newline
    and tab by their two-character names, every other byte below 0x20
    as a [\u00XX] escape; bytes from 0x20 up pass through unchanged.
    Non-finite floats (NaN, infinities) have no JSON spelling and print
    as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields print in list order *)

val fixed : int -> float -> t
(** [fixed d x] is [x] rounded to [d] decimal places, so reports print
    [0.295299] rather than every digit of a measured or modeled value. *)

val to_string : t -> string
(** Layout: an object prints on one line when all its values do, and a
    list when all its elements do and none is an object
    ([{"a":1,"b":[2,3],"c":{"d":4}}]); any other container puts each
    element on its own line, indented two spaces per level. So a list of
    records prints one record per line. Floats print in the
    shortest form that reads back to the same value. *)

val to_file : string -> t -> unit
(** Write [to_string v] and a final newline to the named file. *)
