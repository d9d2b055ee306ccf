(** Finite unions of disjoint closed real intervals, with infinite
    endpoints allowed.

    This is the satisfying set of a one-dimensional selection predicate:
    atomic comparisons denote half-lines or segments and Boolean
    combinations denote finite unions.  Working with the satisfying set —
    rather than recursing over the predicate tree — makes three-way
    classification and success-probability computation exact even for
    arbitrarily nested [And]/[Or]/[Not].

    Endpoints are treated as closed throughout.  Under the continuous
    belief models used in this repository, single points carry zero
    probability mass, so this loses nothing for success probabilities; for
    classification it means strict and non-strict comparisons coincide,
    which we document rather than fight. *)

type t

val segment : float -> float -> t
(** [segment lo hi] is [\[lo, hi\]] ([lo <= hi]; bounds may be infinite but
    not NaN).  @raise Invalid_argument on violation. *)

val at_least : float -> t
(** [\[x, +∞)]. *)

val at_most : float -> t
(** [(-∞, x\]]. *)

val union : t -> t -> t
val inter : t -> t -> t
val complement : t -> t

val mem : t -> float -> bool

val covers : t -> Interval.t -> bool
(** [covers s i] iff every point of [i] belongs to [s]. *)

val disjoint : t -> Interval.t -> bool
(** [disjoint s i] iff no point of [i] belongs to [s]. *)

val components : t -> (float * float) list
(** Disjoint components in increasing order; bounds may be infinite. *)

val measure_within : t -> Interval.t -> float
(** Total length of the intersection of [s] with the (finite) interval. *)
