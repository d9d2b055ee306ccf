(** Scalar imprecision models.

    The paper develops its framework for interval objects but notes (§1,
    footnote 1; §2.2) that the technique works for any model of
    imprecision that supports three-way classification, a laxity measure
    and — for the optimizer — a success-probability estimate.  This module
    provides three such models over real scalars:

    - {b Exact}: a precise value; laxity 0.
    - {b Interval}: support [\[lo, hi\]] with a uniform belief; laxity is
      the width (the paper's running example).
    - {b Gaussian}: mean/stddev belief; the paper suggests using a
      distribution parameter such as the standard deviation as laxity
      (§2.2).  Classification treats values beyond 4 standard
      deviations as definite, which is the standard truncation used to
      make a Gaussian model classifiable at all. *)

type t =
  | Exact of float
  | Interval of Interval.t
  | Gaussian of { mean : float; stddev : float }

val exact : float -> t
val interval : float -> float -> t

val gaussian : mean:float -> stddev:float -> unit -> t
(** [stddev] must be positive and [mean] finite. *)

val laxity : t -> float
(** 0 / width / stddev respectively. *)

val support : t -> Interval.t
(** Interval of values considered possible: the point, the interval, or
    [mean ± 4·stddev]. *)

val success_between : t -> float -> float -> float
(** [P(a <= value <= b)] under the model's belief: 0/1 for [Exact], the
    uniform mass for [Interval], the Gaussian mass for [Gaussian]; 0 when
    [a > b]. *)

val sample : Rng.t -> t -> float
(** Draw a plausible precise value from the belief.  Gaussian draws are
    rejected onto the support so that classification and ground truth
    can never contradict each other. *)
