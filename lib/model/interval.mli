(** Closed real intervals — the paper's running model of imprecision.

    An imprecise object [o = \[lo, hi\]] stands for an unknown precise value
    [ω^o ∈ \[lo, hi\]].  The paper defines its laxity as the width
    [hi - lo] (§2.2). *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi].  @raise Invalid_argument if [lo > hi] or either bound is
    not finite. *)

val point : float -> t
(** Degenerate interval [\[x, x\]] — a precise value. *)

val lo : t -> float
val hi : t -> float

val width : t -> float
(** [hi - lo]; the paper's laxity [l(o)] for intervals. *)

val is_point : t -> bool
(** [true] iff the width is 0. *)

val contains : t -> float -> bool
(** [contains i x] iff [lo <= x <= hi]. *)

val subset : t -> t -> bool
(** [subset a b] iff every point of [a] lies in [b]. *)

val intersects : t -> t -> bool
val intersection : t -> t -> t option

val sample : Rng.t -> t -> float
(** Uniform draw from the interval (its midpoint if degenerate). *)

(** {2 Predicate support}

    Classification of the interval against one-dimensional predicates,
    together with the success probability [s(o)] of §4.1 computed under
    the paper's uniformity assumption ([ω^o ~ U(lo, hi)]). *)

val classify_le : t -> float -> Tvl.t
(** Verdict of [ω^o <= x]: [Yes] if [hi <= x], [No] if [lo > x], else
    [Maybe]. *)

val success_le : t -> float -> float
(** [P(ω^o <= x)] under uniformity, [(x - lo)/(hi - lo)] clamped to
    [\[0, 1\]] (the paper's [s(o)] for the mirrored predicate).  1 for a
    degenerate interval satisfying the predicate, 0 otherwise. *)

val success_between : t -> float -> float -> float
