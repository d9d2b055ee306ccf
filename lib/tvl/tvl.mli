(** Three-valued logic for predicate evaluation over imprecise objects.

    The paper's selection predicate [λ] maps an imprecise object to
    {{!t} [Yes | No | Maybe]}: [Yes] means every precise value the object
    could take satisfies the predicate, [No] means none does, and [Maybe]
    means the object must be probed to find out.  Compound predicates
    combine verdicts with Kleene's strong three-valued logic, which is
    exactly the sound semantics for this reading: e.g. [Yes && Maybe]
    is [Maybe] because the conjunction's truth still hinges on the
    unresolved conjunct. *)

type t = Yes | No | Maybe

val equal : t -> t -> bool
val to_string : t -> string

val of_bool : bool -> t
(** [of_bool b] is [Yes] or [No]; a precise evaluation never yields
    [Maybe]. *)

val not_ : t -> t
(** Kleene negation: swaps [Yes] and [No], fixes [Maybe]. *)

val and_ : t -> t -> t
(** Kleene conjunction: [No] dominates, then [Maybe]. *)

val or_ : t -> t -> t
(** Kleene disjunction: [Yes] dominates, then [Maybe]. *)

val is_definite : t -> bool
(** [true] for [Yes] and [No]. *)

(** {2 Unboxed encoding}

    Vectorized classification packs one verdict per byte into
    preallocated buffers; the codes follow the truth order under which
    {!and_} is the meet and {!or_} the join ([No] = 0, [Maybe] = 1,
    [Yes] = 2). *)

val to_char : t -> char
(** The verdict's code as a byte, for [Bytes] verdict buffers. *)

val of_char : char -> t
(** @raise Invalid_argument outside ['\000'..'\002']. *)
