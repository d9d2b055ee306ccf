(** One-call quality-aware query execution.

    The full QaQ pipeline — sample, estimate selectivities and the
    decision-plane density, solve the §4.2.2 optimization problem, run
    the online operator — wired together behind a single function.  Each
    stage stays independently accessible (this module only composes
    {!Planner} and {!Operator}), so anything the facade decides can be
    overridden by calling the stages directly. *)

type plan = {
  params : Policy.params;  (** the solved decision parameters *)
  estimate : Selectivity.estimate option;
      (** what the sample said; [None] when the sample came back empty
          and {!Planner.default_prior} was used *)
  evaluation : Solver.evaluation;  (** the optimizer's own expectations *)
  dual : Solver.dual_evaluation option;
      (** the budgeted (dual) solution a finite [?budget] planned with;
          [None] on unbudgeted runs — [evaluation] is then the primal
          optimum, otherwise the primal re-pricing of [dual]'s params *)
  sample_size : int;
      (** objects the pilot sample read (and charged to the run) *)
  max_laxity : float;  (** the laxity cap [L] the plan was solved with *)
}

(** How to plan the query. *)
type planning =
  | Sampled of {
      fraction : float;  (** Bernoulli sampling rate, e.g. the paper's 0.01 *)
      density : [ `Uniform | `Histogram ];
    }
      (** {!Planner.pilot} then {!Planner.solve}; an empty sample plans
          under {!Planner.default_prior} *)
  | Fixed of Policy.params  (** skip planning *)

val default_planning : planning
(** The paper's recipe: 1% sample, uniform density. *)

(** What permanent probe failure cost a run — {!Operator.degradation},
    filled in by the operator (see there for each field).  An unfaulted
    run reports all zeros with [requirements_met = true] (the operator's
    guarantees always satisfy the requirements when nothing failed). *)
type degradation = Operator.degradation = {
  failed_probes : int;
  failed_attempts : int;
  degraded_forwards : int;
  degraded_ignores : int;
  forced_actions : int;
  wasted_cost : float;
  guarantees_before : Quality.guarantees option;
  guarantees_after : Quality.guarantees;
  requirements_met : bool;
}

(** The anytime contract of a budgeted run, summarised.  Present on the
    result iff [?budget] or [?deadline] was passed to {!run}. *)
type budget_summary = {
  allotted : float;  (** the requested budget ([infinity] = deadline only) *)
  spent : float;  (** total metered spend, planning included *)
  remaining : float;  (** [max 0 (allotted - spent)] *)
  target_recall : float;
      (** the dual planner's reachable recall target — the requested
          recall whenever the budget did not bind at planning time *)
  budget_limited : bool;
      (** the budget bound the run: the planner capped the target below
          the requested recall, or the scan stopped on the budget or
          deadline before reaching it *)
  budget_replans : int;
      (** adaptive re-solves that went through the dual against the
          remaining budget *)
  stopped_early : bool;
      (** the scan was cut off by the budget or deadline (mirrors
          [report.stopped_early]) *)
}

type 'o result = {
  report : 'o Operator.report;
  plan : plan option;  (** [None] when planning was [Fixed] *)
  counts : Cost_meter.counts;
      (** the whole run's charges: the pilot sample's reads plus
          everything in [report.counts] *)
  normalized_cost : float;
      (** W / |T| under the chosen cost model, over [counts] — so
          planning is priced, not free *)
  degradation : degradation;
      (** [report.degraded]: how permanent probe failures affected the
          run (all zeros without faults) *)
  budget : budget_summary option;
      (** present iff [?budget] or [?deadline] was passed *)
  reconcile : Metrics.snapshot -> (unit, string) Stdlib.result;
      (** [reconcile delta] checks a metric delta that covers exactly
          this run against the run's meter: {!Cost_meter.reconcile_tiers}
          with the cascade's tier names, so every [qaq.*] counter and
          every [qaq.probe.tier.<name>.probes]/[.batches] counter must
          equal the meter's count.  {!Profile.of_run} reports its
          [Error] as [reconcile_error]. *)
  elapsed_seconds : float;
      (** end-to-end wall time of the run on the observability clock
          (the default clock without [?obs]) — for latency SLOs; not
          part of the deterministic answer *)
}

val degraded : 'o result -> bool
(** [result.degradation.failed_probes > 0]. *)

(** {2 Running a query} *)

val run :
  rng:Rng.t ->
  ?planning:planning ->
  ?adaptive:bool ->
  ?cost:Cost_model.t ->
  ?max_laxity:float ->
  ?budget:float ->
  ?deadline:float ->
  ?domains:int ->
  ?obs:Obs.t ->
  ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
  instance:'o Operator.instance ->
  ?probe:'o Probe_driver.t ->
  ?cascade:'o Cascade.t ->
  requirements:Quality.requirements ->
  'o Scan_pipeline.t ->
  'o result
(** Evaluate a Quality-Aware Query over a scan source.

    [planning] defaults to {!default_planning}.  [adaptive] (default
    [false]) re-estimates the workload mid-scan and re-solves
    periodically (see {!Adaptive}); it composes with either planning
    mode, starting from the planned parameters.  [max_laxity] caps the
    histogram range when known a priori.  Otherwise the largest laxity
    over the whole source is used (1 if that is not positive), taken in
    the pilot sample's own pass, so omitting it plans exactly like
    passing that maximum.  When given it must be positive and finite, in
    every planning mode.  [cost] (default
    {!Cost_model.paper}) prices the run for [normalized_cost] and the
    solver's objective.

    [budget] caps the run's total metered spend (cost units of [cost],
    planning included) — the anytime contract: planning solves the
    {e dual} problem ({!Solver.solve_dual}), maximising the reachable
    recall guarantee within the budget instead of minimising cost at
    fixed recall, adaptivity is forced on so every replan window
    re-solves the dual against the budget {e remaining} on the meter,
    and the scan refuses the next read once the committed spend (metered
    charges, pending probes and the read's own worst case) cannot pay
    for it — the scan's spend never exceeds the budget, strictly within
    the one-probe-batch overshoot the anytime contract allows (only a
    budget smaller than the pilot sample itself can be exceeded, by the
    sample; use [Fixed] planning for sub-sample budgets).  The answer
    only ever grows, so quality is monotone in budget on a fixed
    workload.
    [budget = infinity] takes exactly the unbudgeted code paths
    (bit-for-bit identical result; only the [budget] summary is added).
    [deadline] is the same stop on wall-clock seconds since the call —
    inherently non-deterministic, so prefer [budget] wherever
    reproducibility matters.  Both may be combined; either makes the
    result carry a {!budget_summary}.

    The probe capability is a {!Cascade} — the engine's only probe
    path.  Pass [cascade] directly, or pass a plain driver as [probe]
    (exactly one of the two): it runs as [Cascade.of_driver ~cost probe],
    the oracle-only cascade priced at the run's cost model.  Wrap a
    plain closure with {!Probe_driver.scalar} for the paper's scalar
    path.  A PROBE decision enters at the cascade's starting tier (see
    [Operator.run]'s [cascade]): cheap [Shrink] proxies narrow the
    imprecision interval and may produce a definite verdict without the
    oracle; residuals escalate tier by tier.  Planning prices each probe
    at the cascade's optimal strategy price ({!Solver.problem}'s
    [tiers]) — for the oracle-only cascade, exactly the amortized
    [c_p + c_b/B] at the driver's batch size — and the adaptive
    re-solver does the same.  Spend is read off the meter per tier
    ({!Cost_meter.tiered_cost}), so [normalized_cost], the budget stop
    and the [budget] summary price every probe at its own tier's rates,
    and [degradation.wasted_cost] prices failed attempts at the oracle
    tier's amortized rate.

    The returned report's guarantees always satisfy the requirements —
    unless the probe capability failed permanently on some objects
    ({!Probe_driver.Failed}): the run still completes, the affected
    objects fall back to guarantee-aware write decisions, and
    [degradation] summarises what happened, including whether the
    recomputed guarantees still meet the requirements (only a {e forced}
    fallback can break them).

    The source ({!Scan_pipeline.t}) is the run's one input: the pilot
    sample, the laxity cap, [|T|] and the scan's cursor all read it, and
    so does {!Profile.of_run}'s oracle audit afterwards.
    {!Scan_pipeline.store} plans and scans a {!Column_store} directly,
    building only the sampled rows before the scan, and is bit-for-bit
    {!Scan_pipeline.rows} over the store's rows for every [domains] value
    (with [prune] off; pruning shrinks the scan's [total] like a zone map
    does).  [instance] describes the
    source's objects.

    The engine accounts the whole run on one meter: the pilot sample's
    reads are charged before the scan, so [counts] (and hence
    [normalized_cost]) include the price of planning while
    [report.counts] stays scan-only.  The operator's policy rng stream
    is independent of the sampling stream, so a [Sampled] run and a
    [Fixed] run given the planned parameters make identical decisions
    and differ in cost by exactly [sample_size * c_r].

    [domains] (default: the [QAQ_DOMAINS] environment variable, else 1,
    capped at the core count by {!Domain_pool.resolve}) sets the number
    of lanes the run may use.  With more than one, the
    pure per-object work — the pilot sample's classify/laxity/success
    evaluation and the scan's classification stage ({!Scan_pipeline}) —
    runs as tasks on that many lanes of the process's {!Domain_pool}
    (at most one per core), while
    every decision, rng draw, counter and charge stays on the sequential
    path: the result is bit-for-bit identical for every [domains]
    value.

    [obs] threads observability through every stage: the [plan] and
    [scan] spans (plus [probe-flush] and [adaptive-reestimate] further
    down), the [qaq.*] counters mirroring the meter,
    [engine.sample_reads], and the [qaq.maybe.laxity] /
    [qaq.maybe.success] histograms over the MAYBE set.  With
    [domains > 1] it also carries [qaq.parallel.chunks], the
    [qaq.parallel.domains] gauge (the capped lane count) and one
    [qaq.parallel.domain<i>.busy_seconds] gauge per lane.
    The result's [reconcile] checks the instrumentation covers all
    metered work.  A run's profile is a fold over what it produced:
    {!Profile.of_run} diffs [obs] against a snapshot the caller took
    before the call, reconciles the delta and audits the answer against
    a ground-truth oracle.

    [on_task] is handed to every {!Domain_pool} call of the run when
    [domains > 1]; together with [Chrome_trace] it yields one timeline
    row per lane.

    @raise Invalid_argument on an invalid sampling fraction, if
    [max_laxity] is not positive and finite, if both or neither of
    [probe] and [cascade] are given, if [domains < 1], if [budget] or
    [deadline] is negative or NaN, or if [QAQ_DOMAINS] is set to
    anything but a positive integer. *)

(** {2 The array entry point} *)

(** A store of the same objects as {!execute}'s [data], with what
    {!Scan_pipeline.store} takes beside it. *)
type 'o columnar = {
  store : Column_store.t;
  of_row : Column_store.row -> 'o;
  pred : Predicate.t;
  prune : bool;
}

val execute :
  rng:Rng.t ->
  ?cost:Cost_model.t ->
  ?batch:int ->
  ?domains:int ->
  ?obs:Obs.t ->
  ?columnar:'o columnar ->
  instance:'o Operator.instance ->
  ?probe:'o Probe_driver.t ->
  ?cascade:'o Cascade.t ->
  requirements:Quality.requirements ->
  'o array ->
  'o result
(** {!run} over [Scan_pipeline.rows ~instance data], for a caller that
    already holds the rows; with [columnar], the scan reads the store
    while the pilot still reads [data].  [batch] may only restate the
    oracle's batch size.  New code calls {!run}.
    @raise Invalid_argument as {!run} does, if [batch] differs from the
    oracle's batch size, or if the store's length differs from [data]'s. *)

(** {2 Concurrent multi-query execution} *)

val next_trace_id : unit -> int
(** Mint a fresh query trace ID (process-wide atomic counter).  A
    caller stamps a query's events with it by passing {!run} an
    [obs] re-stamped with [Obs.with_context] (and the same to the
    query's broker clients). *)

val default_lanes : int
(** How many queries in flight may each keep a backend round of their
    own: a server's {!Probe_broker} [rounds] bound over pure backends. *)

val execute_many : ?domains:int -> (unit -> 'o result) array -> 'o result array
(** Run every thunk and return their results in input order.  The
    thunks run as tasks of {!Domain_pool.run} on [min domains n] lanes,
    capped at the core count; the caller is lane 0, and [domains]
    defaults to [Domain.recommended_domain_count ()].  A lane runs its
    next thunk while its thunk waits on backend I/O inside
    {!Domain_pool.blocking}, so even one lane can have several queries
    in flight, and more lanes than cores would buy no more overlap.
    Each thunk is one {!run} call and should pass [~domains:1]
    (leaving [domains] out reads [QAQ_DOMAINS]): the batch's queries
    already keep every lane busy, so a query's own classification tasks
    would find no idle lane and only add task overhead.  A raising
    thunk re-raises once every thunk has finished.

    Results are bit-for-bit independent of scheduling — provided each
    thunk owns its [rng] and its [probe] driver or [cascade] (drivers
    are confined to one domain at a time; to run many queries against
    shared probe capacity, give each its own
    [Probe_broker.cascade_client] or [Probe_broker.client] of a common
    broker, built before the batch runs) and the probe capability
    behind the drivers resolves each object to a value that does not
    depend on when other queries probe it (a pure resolver behind a
    [Probe_broker] with the default infinite freshness qualifies; so
    does any set of independent drivers).  Then [execute_many runs]
    equals [Array.map] of the solo calls.

    @raise Invalid_argument if [domains < 1]. *)
