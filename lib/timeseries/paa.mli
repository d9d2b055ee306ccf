(** Piecewise Aggregate Approximation sketches with min/max envelopes.

    A series of length [n] is summarised by [k] equal segments, each
    keeping its mean, minimum and maximum — a compressed representation a
    fraction of the original's size (the paper's storage-barrier
    example).  The envelope yields {e exact} lower and upper bounds on
    the Euclidean distance between the original series and any precise
    query series, which is what turns a sketch into a classifiable
    imprecise object: distance predicates evaluate to YES/NO when the
    bound interval falls entirely on one side of the threshold and MAYBE
    otherwise. *)

type t

val compress : segments:int -> Time_series.t -> t
(** @raise Invalid_argument if [segments < 1] or exceeds the series
    length. *)

val compression_ratio : t -> float
(** Stored floats of the sketch divided by those of the original
    (3k / n). *)

val distance_bounds : t -> Time_series.t -> Interval.t
(** [distance_bounds sketch q]: an interval certainly containing the
    Euclidean distance between the original series and [q].
    @raise Invalid_argument on length mismatch. *)
