(** Pre-query estimation from a random sample (paper §4.2, §4.2.1).

    Before evaluating a Quality-Aware Query, the optimizer needs
    - the fractions [f_y], [f_m] of YES and MAYBE objects (§4.2.1), and
    - an estimate of the density [g(s(o), l(o))] on the decision plane
      (§4.2) — either assumed uniform or estimated here as histograms.

    The paper estimates both from a 1 % random sample of [T]; these
    functions do the same from any sample the caller provides. *)

type estimate = {
  f_y : float;  (** estimated fraction of YES objects *)
  f_m : float;  (** estimated fraction of MAYBE objects *)
  max_laxity : float;  (** the L used for histogram ranges *)
  sample_size : int;
  yes_laxity : Histogram.Hist1d.t;  (** laxity distribution of YES objects *)
  maybe_plane : Histogram.Hist2d.t;
      (** joint (s, l) distribution of MAYBE objects *)
}

val estimate :
  instance:'o Operator.instance ->
  ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
  ?lanes:int ->
  ?laxity_cap:float ->
  'o array ->
  estimate
(** [estimate ~instance sample] classifies every sample object and builds
    the estimate.  [laxity_cap] fixes L when it is known a priori (the
    paper's setting); by default the sample maximum is used.  The
    histograms have 20 bins per axis.

    [lanes] (default 1) fans the per-object classify/laxity/success
    evaluation out ({!Domain_pool.map}, which calls [on_task]); the
    histogram accumulation itself stays sequential in sample order
    (float summation is order-sensitive), so the result is bit-for-bit
    identical at every lane count.

    @raise Invalid_argument on an empty sample. *)

val bernoulli_sample : Rng.t -> fraction:float -> 'o array -> 'o array
(** Each object independently enters the sample with the given
    probability — the paper's "random sample of size 1 %": the objects
    at {!Scan_pipeline.sample_indices}, the draws every scan source's
    pilot makes.
    @raise Invalid_argument if the fraction is outside [0, 1]. *)
