(** The paper's planning recipe (§4.2, §4.2.1), written once.

    Every query is planned the same way: a pilot sample estimates the
    fractions [f_y], [f_m] and the [(s, l)] density ({!pilot}), then the
    §4.2.2 program is solved for the decision parameters ({!solve}) —
    the primal, or under a cost budget the dual.  The engine, the
    adaptive re-solver, the paper's trials and the CLI all go through
    these two functions; none builds a {!Solver.problem} itself. *)

val default_prior : float * float
(** [(f_y, f_m) = (0.2, 0.2)]: the agnostic prior a query is planned
    under when its pilot sample comes back empty, and the workload the
    adaptive policy's default initial plan is solved for. *)

(** {2 The pilot half} *)

type pilot = {
  sample_size : int;  (** objects the Bernoulli sample drew *)
  estimate : Selectivity.estimate option;
      (** what the sample said; [None] when it came back empty *)
  f_y : float;  (** the estimate's [f_y], else the prior's *)
  f_m : float;  (** the estimate's [f_m], else the prior's *)
  density : Density.t;
      (** the sample's histograms under [`Histogram] with a non-empty
          sample, else the uniform density over [\[0,1\] x \[0,L\]] *)
  max_laxity : float;  (** the laxity cap [L] the estimate used *)
}

val pilot :
  rng:Rng.t ->
  fraction:float ->
  instance:'o Operator.instance ->
  ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
  ?lanes:int ->
  ?max_laxity:float ->
  prior:float * float ->
  density:[ `Uniform | `Histogram ] ->
  'o Scan_pipeline.t ->
  pilot
(** Draw a Bernoulli sample of the source at rate [fraction] from [rng]
    ({!Scan_pipeline.sample_indices}, the draws of
    {!Selectivity.bernoulli_sample}) and estimate from it with the
    laxity cap [max_laxity] ({!Selectivity.estimate}, on [lanes]
    lanes).  Without [max_laxity] the cap is the source's largest
    laxity (1 when none is positive), taken in the sample's own pass.
    Charges nothing: a caller that prices the pilot charges
    [sample_size] reads itself.
    @raise Invalid_argument if [fraction] is outside [\[0, 1\]] or
    [max_laxity] is not positive. *)

(** {2 The solve half} *)

type solution = {
  problem : Solver.problem;  (** the §4.2.2 instance that was solved *)
  params : Policy.params;  (** the chosen decision parameters *)
  evaluation : Solver.evaluation Lazy.t;
      (** the primal evaluation of [params]: the primal optimum, or
          under a budget the primal re-pricing of [dual]'s parameters,
          computed when first forced *)
  dual : Solver.dual_evaluation option;
      (** the dual solution when a budget was given *)
}

val solve :
  total:int ->
  f_y:float ->
  f_m:float ->
  ?density:Density.t ->
  max_laxity:float ->
  requirements:Quality.requirements ->
  ?cost:Cost_model.t ->
  ?tiers:Probe_tier.spec array ->
  ?budget:float ->
  unit ->
  solution
(** Solve the §4.2.2 program over [total] objects of composition
    [(f_y, f_m)] under [density] (default: uniform over
    [\[0,1\] x \[0,max_laxity\]]).  [cost] and [tiers] price
    the objective as in {!Solver.problem}.  Without [budget] this is one
    {!Solver.solve}; with it, one {!Solver.solve_dual} against [budget]
    (and one {!Solver.evaluate} if [evaluation] is forced).
    @raise Invalid_argument as {!Region_model.spec} and
    {!Solver.problem} do. *)
