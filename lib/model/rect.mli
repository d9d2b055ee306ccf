(** Axis-aligned rectangles: the imprecision model for moving objects.

    A tracked object whose last known position and maximum speed are known
    is somewhere inside a rectangle (the paper's replication-barrier
    scenario, §1.1).  Laxity is taken as the diagonal length, so a probe
    (which collapses the rectangle to a point) always drives it to 0. *)

type point = { x : float; y : float }

type t = private { xr : Interval.t; yr : Interval.t }

val make : Interval.t -> Interval.t -> t
val of_center : point -> radius:float -> t
(** Square of half-side [radius] around the point.  [radius >= 0]. *)

val of_point : point -> t
val laxity : t -> float
(** Diagonal length; 0 iff the rectangle is a point. *)

val contains : t -> point -> bool

val classify_in : t -> t -> Tvl.t
(** [classify_in o window]: verdict of "the object's true position lies in
    [window]" — [Yes] if [o ⊆ window], [No] if disjoint, else [Maybe]. *)

val success_in : t -> t -> float
(** Probability of a YES probe under a uniform position belief: the area
    fraction of [o] covered by the window (1 or 0 for degenerate [o]). *)

val sample : Rng.t -> t -> point
