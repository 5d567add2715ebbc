(** Minimal JSON: the interchange format for campaign results.

    Just enough of RFC 8259 to write and read back the documents this
    repository produces (JSONL run records, benchmark summaries) with
    no external dependency. Objects preserve field order; numbers
    parse to [Int] when they carry no fraction or exponent, [Float]
    otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (the JSONL form). Strings are
    escaped per RFC 8259; non-finite floats render as [null]. *)

val to_string_pretty : t -> string
(** Two-space indented rendering for files meant to be read (and
    diffed) by humans. *)

val write_file : ?pretty:bool -> path:string -> t -> (unit, string) result
(** One document, newline-terminated ({!to_string_pretty} when
    [pretty]); a path that cannot be written is an [Error] naming it. *)

val parse : string -> (t, string) result
(** Parse one JSON document; surrounding whitespace is allowed,
    trailing garbage is an error. Errors carry a character offset. *)

(** {2 Destruction helpers}

    All return [Error]/[None] rather than raising, so callers fold
    malformed records into per-record failures. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

val to_int : t -> (int, string) result
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> (float, string) result
(** Accepts [Float] and [Int]. *)

val to_list : t -> (t list, string) result

val int_member : string -> t -> (int, string) result
(** [int_member name obj] is [member] followed by {!to_int}, with the
    field name in the error. *)

val float_member : string -> t -> (float, string) result

val string_member : string -> t -> (string, string) result
