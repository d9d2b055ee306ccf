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
  cost : Cost_model.t;  (** read and write prices *)
  tiers : Probe_tier.spec array;
      (** the probe cascade the evaluation will use; the objective
          prices each probe at its optimal strategy price
          ({!Probe_tier.select}).  For a one-tier oracle that is the
          amortized [c_p + c_b/B] of its tier (see
          {!Cost_model.amortized_probe}). *)
  effective : Cost_model.t;
      (** [cost] with probes priced as the objective sees them — [c_p]
          is the strategy price of [tiers] and [c_b] is 0 — derived once
          by {!problem} *)
}

val problem :
  total:int ->
  spec:Region_model.spec ->
  requirements:Quality.requirements ->
  ?cost:Cost_model.t ->
  ?tiers:Probe_tier.spec array ->
  unit ->
  problem
(** [cost] defaults to {!Cost_model.paper}; [tiers] defaults to
    [Probe_tier.oracle_only ~cost ~batch:1 ()], the scalar oracle whose
    probe price is exactly [cost.c_p].  A caller that batches its
    oracle probes passes [Probe_tier.oracle_only ~cost ~batch ()].
    A laxity bound above the spec's [max_laxity] is accepted: the
    density clamps it, so everything is forwardable.
    @raise Invalid_argument if [total <= 0] or [tiers] is invalid per
    {!Probe_tier.validate}. *)

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

val solve : problem -> evaluation
(** Multistart Nelder–Mead: every seed is refined on the penalised
    objective and the refined points are folded with {!better} in seed
    order.  The seeds are the 16 corners of the unit hypercube, its
    centre, and the Stingy and Greedy parameter points.
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

val better_dual : dual_evaluation -> dual_evaluation -> dual_evaluation
(** Prefer precision-feasibility, then higher [target_recall], then lower
    spend; among infeasible candidates, less violation then cost. *)

val solve_dual : budget:float -> problem -> dual_evaluation
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
    breakdown by operation (Eq. 11), how probes were priced and each
    constraint's slack.  The pricing line names the amortized
    [c_p + c_b/B] of a one-tier oracle (omitted when [B = 1] and
    [c_b = 0]: the price is then [c_p]), or the cascade's start tier
    and strategy price over several tiers.  Meant for CLI output and
    query-plan debugging. *)
