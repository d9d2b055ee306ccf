(** Plain-text tables for experiment reports.

    The benchmark harness prints each reproduced paper table side by side
    with the paper's reported values; this module renders those grids with
    aligned columns in the style of the paper's own tables. *)

type t

val create : title:string -> header:string list -> t
(** A table with a title row and column headers.  All rows added later must
    have the same arity as [header]. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row arity differs from the header. *)

val cell_of_float : float -> string
(** Compact float rendering: integers without a decimal point, otherwise up
    to three significant decimals, matching the paper's table style. *)

val render : t -> string
(** The full table, ending with a newline. *)

val print : t -> unit
(** [print t] writes {!render} to standard output. *)
