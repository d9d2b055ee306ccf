(** Minimal RFC-4180-style CSV reading and writing.

    Enough CSV for the project's needs — persisting generated workloads
    and experiment results so runs can be compared across sessions and
    plotted externally.  Fields containing commas, quotes or newlines
    are quoted; quotes are doubled.  Reading accepts both quoted and
    bare fields and both LF and CRLF line ends. *)

exception Parse_error of { offset : int; reason : string }
(** Malformed CSV input.  [offset] is the byte position in the decoded
    text where the offending construct starts — for an unterminated
    quoted field, the position of the opening quote. *)

val write_file : string -> string list list -> unit
(** Lines joined with ["\n"], with a trailing newline; a field is quoted
    if it needs quoting. *)

val read_file : string -> string list list
(** Split into rows (handles quoted embedded newlines); skips a final
    empty line.  @raise Parse_error on an unterminated quoted field. *)
