(** Adaptive re-planning: re-estimate the workload mid-scan and re-solve.

    The paper tunes the region parameters once, from a pre-query sample
    (§4.2.1, §5.2).  When that sample is unrepresentative — too small, or
    the input's composition drifts along the scan — the fixed parameters
    are solved against the wrong workload.  This extension keeps online
    estimates of [f_y], [f_m] and the [(s, l)] density from the objects
    the operator actually reads, and periodically re-solves the §4.2.2
    problem, swapping in the new parameters.

    Every estimate comes for free: the operator classifies every object
    it reads anyway, so no extra reads or probes are spent.  The policy
    plugs in as an ordinary {!Policy.Custom}; Theorem 3.1 enforcement is
    untouched, so adaptivity can only change cost, never correctness. *)

type t

type budget = { allotted : float; spent : unit -> float }
(** A live budget: the total allotted spend and a closure reading the
    spend so far off the engine's {!Cost_meter} (or any other source). *)

val create :
  rng:Rng.t ->
  total:int ->
  max_laxity:float ->
  requirements:Quality.requirements ->
  ?cost:Cost_model.t ->
  ?tiers:Probe_tier.spec array ->
  ?replan_every:int ->
  ?max_replans:int ->
  ?budget:budget ->
  ?initial:Policy.params ->
  ?obs:Obs.t ->
  unit ->
  t
(** [replan_every] (default 500) objects between re-solves, up to
    [max_replans] (default 8) re-solves.  [initial] (default: the
    {!Planner.solve} solution under the uniform density and
    {!Planner.default_prior}) is used until the first re-plan.  [tiers]
    (default: the one-tier oracle at [cost] and batch size 1) is the
    probe cascade the evaluation will run through; every solve — the
    default [initial] included — prices probes at its strategy price, so
    mid-scan plans see the same cost surface as the initial one
    ({!Solver.problem}'s [tiers]).  Every solve is one {!Planner.solve}.

    With [budget], every re-solve goes through the dual
    ({!Solver.solve_dual}) instead of the primal: the refreshed [(s, l)] histograms are solved
    over the {e remaining} scan against the {e remaining} budget
    [allotted - spent ()], so a mis-estimated selectivity degrades the
    recall target gracefully instead of blowing the budget.  These dual
    re-solves are additionally counted by {!budget_replans}.

    [obs] times each re-solve under the [adaptive-reestimate] span and
    emits a {!Trace.Replan} event for each.
    @raise Invalid_argument if [total <= 0], [max_laxity] is not
    positive and finite, [tiers] is invalid, [replan_every < 1] or
    [max_replans < 0]. *)

val policy : t -> Policy.t
(** The policy to pass to {!Operator.run}. *)

val current_params : t -> Policy.params
(** The parameters currently in force (for inspection/logging). *)

val budget_replans : t -> int
(** Re-solves that went through the dual (budgeted) path; 0 when no
    budget was given. *)
