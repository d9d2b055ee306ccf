(** Special functions not provided by the OCaml standard library.

    Needed by the Gaussian imprecision model to compute predicate success
    probabilities. *)

val normal_cdf : mean:float -> stddev:float -> float -> float
(** CDF of the normal distribution, through the error function (absolute
    error below 1.5e-7: Abramowitz & Stegun 7.1.26 with symmetry).
    [stddev] must be positive. *)

val normal_quantile : float -> float
(** Inverse CDF of the standard normal for [p] in (0, 1), via the
    Acklam rational approximation (relative error below 1.15e-9): an
    approximation independent of {!normal_cdf}'s, kept to cross-check it.
    @raise Invalid_argument if [p] is outside (0, 1). *)
