(** The full optimization problem of §4.2.2.

    Minimise the expected evaluation cost [W] (Eq. 11) over the four free
    parameters [(s3, s5, p_py, p_fm)], subject to the precision (15) and
    recall (16) constraints, the read bound [R <= |T|] and the region
    accounting of {!Region_model}.

    For fixed parameters the problem is linear in the number of reads
    [R]: the cost grows linearly and the recall constraint is a single
    linear inequality, so the minimal feasible [R] has a closed form.
    With [α] the expected YES answers per read and [β] the expected growth
    of the recall denominator's seen part, constraint (16) at [R] reads
    [αR >= r_q((β − 1)R + |T|)]; hence with [γ = α − r_q(β − 1)]:

    - [r_q = 0]: [R = 0] — nothing needs to be read;
    - [γ >= r_q]: [R = r_q|T|/γ <= |T|] is minimal and feasible;
    - [γ < r_q]: even reading everything cannot reach the recall bound —
      the parameters are infeasible.

    The outer 4-dimensional minimisation is done by multistart
    Nelder–Mead with feasibility penalties.  This reproduces the tables
    of §5.1. *)

type problem = private {
  total : int;  (** |T| *)
  spec : Region_model.spec;
  requirements : Quality.requirements;
  cost : Cost_model.t;
  batch : int;
      (** probe batch size B: the objective prices each probe at the
          amortized [c_p + c_b/B] (see {!Cost_model.amortized_probe}) *)
  tiers : Probe_tier.spec array option;
      (** when present, probes run through a tiered cascade and the
          objective prices each probe at the cascade's optimal strategy
          price ({!Probe_tier.select}) instead of the amortized oracle
          price — [cost.c_p]/[c_b]/[batch] are ignored for probes
          (reads and writes keep their [cost] prices) *)
  effective : Cost_model.t;
      (** [cost] with probes priced as the objective sees them — the
          amortized [c_p + c_b/batch], or the cascade's strategy price
          under [tiers] — derived once by {!problem} *)
}

val problem :
  total:int ->
  spec:Region_model.spec ->
  requirements:Quality.requirements ->
  ?cost:Cost_model.t ->
  ?batch:int ->
  ?tiers:Probe_tier.spec array ->
  unit ->
  problem
(** [cost] defaults to {!Cost_model.paper}; [batch] defaults to 1 (the
    scalar probe path, under which the amortized probe price is exactly
    [c_p] and every pre-batching solution is unchanged); [tiers]
    defaults to absent — every pre-cascade solution is bit-for-bit
    unchanged.
    A laxity bound above the spec's [max_laxity] is accepted: the
    density clamps it, so everything is forwardable.
    @raise Invalid_argument if [total <= 0], [batch < 1] or [tiers] is
    invalid per {!Probe_tier.validate}. *)

(** The outcome of instantiating the model at one parameter point. *)
type evaluation = {
  params : Policy.params;
  fractions : Region_model.fractions;
  feasible : bool;
  violation : float;  (** total constraint violation; 0 when feasible *)
  reads : float;  (** expected R (|T| when infeasible) *)
  read_fraction : float;  (** R / |T| *)
  cost : float;  (** expected W at [reads] *)
  normalized_cost : float;  (** W / |T| *)
  expected_precision : float;
}

val evaluate : problem -> Policy.params -> evaluation

val better : evaluation -> evaluation -> evaluation
(** The candidate comparator used by {!solve}: prefer feasibility, then
    lower cost; among infeasible candidates prefer less violation, with
    cost as the tie-break so seed order cannot decide between two
    equally-violating plans.  Exposed for testing. *)

val solve : ?seeds:Policy.params list -> problem -> evaluation
(** Multistart Nelder–Mead.  Default seeds: the 16 corners of the unit
    hypercube, its centre, and the Stingy and Greedy parameter points.
    Returns the best feasible evaluation, or the least-violating one if
    no start reaches feasibility. *)

(** {2 The dual problem — maximise quality under a cost budget}

    The anytime/budgeted form inverts §4.2.2: instead of minimising cost
    subject to the recall bound, maximise the reachable recall guarantee
    subject to [cost <= budget] (precision stays a hard constraint).
    For fixed parameters the budget affords [R_b = min(|T|, budget/u(f))]
    reads at unit cost [u(f)], and constraint (16) solved for [r] gives
    the recall guarantee reachable after [R] reads:
    [r(R) = αR / ((β − 1)R + |T|)], monotone non-decreasing in [R].  The
    dual target is [min(r(R_b), r_q)] — quality never exceeds what was
    asked for, and the spend for the capped target falls back to the
    primal closed form, so an ample budget reproduces the primal plan. *)

type dual_evaluation = {
  d_params : Policy.params;
  d_fractions : Region_model.fractions;
  d_feasible : bool;  (** precision bound holds (an empty answer always does) *)
  d_violation : float;  (** precision violation; 0 when feasible *)
  target_recall : float;  (** reachable recall guarantee, capped at [r_q] *)
  d_reads : float;  (** expected reads for the target, [<= budget/u] *)
  d_cost : float;  (** expected spend, [<= budget] by construction *)
  d_budget : float;  (** the (clamped, non-negative) budget solved against *)
  budget_limited : bool;  (** [target_recall < r_q]: budget binds *)
  d_expected_precision : float;
}

val evaluate_dual : problem -> budget:float -> Policy.params -> dual_evaluation

val better_dual : dual_evaluation -> dual_evaluation -> dual_evaluation
(** Prefer precision-feasibility, then higher [target_recall], then lower
    spend; among infeasible candidates, less violation then cost. *)

val solve_dual :
  ?seeds:Policy.params list -> budget:float -> problem -> dual_evaluation
(** Multistart Nelder–Mead on the penalised dual objective (same seed set
    and simplex machinery as {!solve}).  Fast path: when the primal
    optimum is affordable ([solve] feasible with [cost <= budget]) it is
    returned verbatim as a dual evaluation with [target_recall = r_q] —
    ample budgets are continuous with the unbudgeted planner.  A
    non-positive budget yields the empty plan (target 0, cost 0). *)

val pp_evaluation : Format.formatter -> evaluation -> unit

val explain : problem -> evaluation -> string
(** A human-readable account of a plan: the chosen parameters, the
    expected handling of 1000 read objects (per Fig. 3 region), the cost
    breakdown by operation (Eq. 11) and each constraint's slack.  Meant
    for CLI output and query-plan debugging. *)
