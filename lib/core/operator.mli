(** The online QaQ selection operator (paper §3, Fig. 1), with batched
    probing.

    The operator reads objects one at a time from a {!source}, classifies
    each against the query predicate, and decides — policy preference
    filtered through Theorem 3.1 ({!Decision}) — whether to forward,
    probe, or ignore it.  Forwarded objects are piped to the output
    immediately and never revisited; probe decisions are submitted to a
    probe {!Cascade} and their results are handled when the tier's
    batch resolves.  The operator's own state is the six counters of
    {!Counters} plus the drivers' bounded queues (constant memory).
    Evaluation stops as soon as the recall guarantee reaches [r_q]; the
    precision and laxity requirements hold invariantly at every batch
    flush point, so the final answer always satisfies all three bounds,
    whatever the policy and batch size. *)

(** How the operator interrogates an object type ['o]. *)
type 'o instance = {
  classify : 'o -> Tvl.t;  (** λ(o) *)
  laxity : 'o -> float;  (** l(o), must be >= 0 *)
  success : 'o -> float;
      (** s(o): probability that a probe of a MAYBE returns YES.  May be a
          model-based estimate or a prior such as the constant 0.5
          (§4.1). *)
}

(** A sequential input, read through a cursor.  [advance] moves to the
    next object ([false] once the input is exhausted); [verdict],
    [laxity] and [success] answer λ(o), l(o) and s(o) for the object the
    cursor is on, and [current] builds it.  The loop asks for the laxity
    of YES/MAYBE objects and the success of MAYBE objects only, and calls
    [current] only to forward or probe: a NO or an ignored MAYBE never
    has to exist as an OCaml value (late materialisation).  The three
    questions receive the run's instance; a pre-classifying source (a
    {!Scan_pipeline} cursor: the rows backend's on lanes, the store
    backend's) ignores it, but must answer what the instance would say
    of [current ()].  [total] is the number of
    objects the source will deliver — the initial [|M_ns|] — and must be
    exact: guarantees are computed from it. *)
type 'o source = {
  total : int;
  advance : unit -> bool;
  verdict : 'o instance -> Tvl.t;
  laxity : 'o instance -> float;
  success : 'o instance -> float;
  current : unit -> 'o;
}

val source_of_array : 'o array -> 'o source
(** A cursor over the array in index order that asks the instance about
    each element in place. *)

(** One element of the answer set [A]: either the imprecise object as
    read, or the precise [ω^o] returned by a probe. *)
type 'o emitted = { obj : 'o; precise : bool }

(** What permanent probe failure did to a run.  A probe that fails
    permanently ({!Probe_driver.Failed}) does not abort the query: the
    object falls back to a guarantee-aware write decision — the policy's
    first non-probe preference that Theorem 3.1 still admits, else
    Forward/Ignore in that order, else (nothing feasible) a {e forced}
    action: Forward when the object's laxity fits [l_q^max], Ignore
    otherwise.  The final guarantees are recomputed from the counters as
    usual, so a degraded run reports what it {e actually} achieved; only
    forced actions can push those below the requirements. *)
type degradation = {
  failed_probes : int;  (** objects whose probe failed permanently *)
  failed_attempts : int;  (** attempts burned on those objects *)
  degraded_forwards : int;  (** fallbacks that forwarded imprecise *)
  degraded_ignores : int;  (** fallbacks that ignored *)
  forced_actions : int;  (** fallbacks with no feasible action left *)
  wasted_cost : float;
      (** [failed_attempts * (c_p + c_b/batch)] at the oracle tier's
          prices ({!Probe_tier.amortized} of the cascade's last spec) —
          backend work the meter never charged because no probe
          completed, priced at the same amortized per-probe rate the
          solver and meter use, so degradation reports reconcile with
          plan pricing.  Only the oracle can fail permanently — cheaper
          tiers fail over instead *)
  guarantees_before : Quality.guarantees option;
      (** the guarantees at the first failure ([None] if none failed) —
          the "before" of a degradation summary *)
  guarantees_after : Quality.guarantees;  (** = [report.guarantees] *)
  requirements_met : bool;
      (** whether [guarantees_after] satisfy the requirements; under
          enforcement this can only be [false] when
          [forced_actions > 0] *)
}

type 'o report = {
  answer : 'o emitted list;  (** in emission order; [] if not collected *)
  guarantees : Quality.guarantees;
  requirements : Quality.requirements;
  counts : Cost_meter.counts;
  yes_seen : int;  (** |Y| *)
  maybe_ignored : int;  (** |M_s − A| *)
  answer_size : int;  (** |A| *)
  exhausted : bool;
      (** whether the whole input was consumed (early termination means
          the recall bound was reached first) *)
  stopped_early : bool;
      (** whether [should_stop] fired — the run ended on its budget or
          deadline before the recall bound was reached *)
  degraded : degradation;
      (** zero counts and [wasted_cost], no [guarantees_before], unless
          probes failed permanently *)
}

exception Inconsistent_probe
(** Raised when a probe result contradicts the imprecise object: a YES
    object whose precise version classifies NO (or vice versa an
    unresolvable MAYBE), or a probe result with positive laxity.  This
    indicates corrupted data or a broken probe source, never a policy
    error. *)

val run :
  rng:Rng.t ->
  ?meter:Cost_meter.t ->
  ?obs:Obs.t ->
  ?emit:('o emitted -> unit) ->
  ?collect:bool ->
  ?enforce:bool ->
  ?should_stop:(pending:int -> bool) ->
  ?on_progress:(reads:int -> Quality.guarantees -> unit) ->
  instance:'o instance ->
  cascade:'o Cascade.t ->
  policy:Policy.t ->
  requirements:Quality.requirements ->
  'o source ->
  'o report
(** Evaluate the query.

    [should_stop] (default: never) is consulted before every read with
    the number of probes still pending on the cascade; returning [true]
    ends the scan immediately with whatever answer has accumulated (the
    anytime stop — used by the engine's cost budget and deadline).
    Pending probes are still resolved by the final flush, so the
    reported counters stay consistent; because the hook sees the
    pending count, a cost-budget caller can bound its overshoot to at
    most one probe batch.  The report records the firing under
    [stopped_early], and a {!Trace.Budget_stop} event is emitted when
    tracing.

    [rng] drives the policy's randomised choices.  [meter] (fresh by
    default) accumulates read/probe/batch/write charges; the same meter
    can be shared across runs to account a whole workload.

    [obs] attaches observability: the counters [qaq.reads],
    [qaq.probes], [qaq.batches], [qaq.writes_imprecise] and
    [qaq.writes_precise] (and, per cascade tier, the
    [qaq.probe.tier.<name>.*] probes, batches, shrinks and failovers)
    mirror the meter's charges; they are counted at the instrumentation
    sites, independently of the meter, so {!Cost_meter.reconcile} is a
    real cross-check.  Every MAYBE adds its laxity and success
    probability to the [qaq.maybe.laxity] / [qaq.maybe.success]
    histograms.  Permanent probe failures additionally count
    [qaq.fault.degraded] and emit {!Trace.Degraded} events; the failed
    attempts are {e not} charged to the meter (no probe completed), so
    reconciliation holds under faults.  The counts and histograms are
    run-local tallies: the registry handles are resolved at run start,
    and everything reaches the registry once, in one
    {!Metrics.atomically} section when the run ends — also when it
    raises — so the per-object path takes no lock and a snapshot sees
    whole runs only.  When the obs handle carries a live trace sink,
    every read, decision, probe resolution and early termination emits
    a {!Trace} event as it happens.  With [obs] absent the per-object
    path allocates nothing.  [emit] is
    called on each answer object as soon as it is decided — the
    streaming interface — so it sees the answer in {e delivery} order:
    under probe-ahead (below) a batch's precise entries stream when its
    ticket completes, after entries the scan forwarded since it was
    dispatched.  [collect] (default [true]) additionally accumulates
    the answer in the report, in the synchronous run's order: each
    batch kept in flight reserves a slot at its dispatch position (its
    escalations reserve slots inside it), so [report.answer] is the
    same list whenever the batches land.

    [cascade] is the probe capability ({!Cascade}) and the operator's
    only probe path; wrap a plain driver with {!Cascade.of_driver}.
    With [Cascade.of_driver (Probe_driver.scalar f)] the operator is
    the paper's scalar Fig. 1 loop, bit for bit.  With a larger batch
    size, PROBE-decided objects queue on the driver and resolve
    together; the operator flushes the queue at batch boundaries (the
    driver's own behaviour), on input exhaustion and early termination,
    and eagerly whenever the pending results could push the recall
    guarantee over [r_q] — so batching never defers the stopping test.
    Deferral is conservative for the Theorem 3.1 guards (see the
    soundness note in the implementation), so the returned guarantees
    satisfy the requirements for every batch size.  The drivers must
    not carry pending submissions from another run; their lifetime
    statistics may (batch charges are metered by delta).

    {e Probe-ahead.}  When every tier's driver lets the run hold
    tickets ({!Probe_driver.ahead} > 0, batch size > 1), a full batch
    whose backend answers later stays in flight and the scan reads on;
    a tier's tickets complete in dispatch order, at most [ahead] of
    them held.  Before a YES/MAYBE decision the run waits only if the
    outcomes it lacks could change the decision: with [k] objects whose
    outcome the synchronous run may already hold (those in flight, and
    those queued above the lowest tier with a ticket in flight), each
    can only add the same [y] to [answer_yes], [answer_size] and
    [yes_seen].  [y] is at least [s], the YES objects in flight at the
    final tier: the synchronous run has resolved them, and a YES
    object's precise version must satisfy the predicate.  So
    [y ∈ [s, k]]; both guards loosen as [y] grows, so when
    {!Decision.first_feasible_after} agrees at [y = s] and [y = k] every
    outcome gives that action, and otherwise the oldest ticket completes
    and the test repeats.  Before each read the run waits for every
    ticket whenever the recall test could pass with the in-flight and
    queued probes counted pending, then runs the synchronous stop test.
    Reads, decisions, batches, charges, guarantees and [report.answer]
    are therefore the synchronous run's, bit for bit.  A run stays
    synchronous — every batch completes at dispatch — with a
    [should_stop] hook (budgets and deadlines price pending probes), an
    [on_progress] hook, a [Policy.Custom] (so adaptive) policy, a tier
    of batch size 1, or a driver that may fail a probe ([ahead = 0]: a
    failure's fallback reads the counters at its synchronous point).
    With [obs], a run that can hold tickets also counts its waits:
    [qaq.probe.ahead_waits.guard] (tickets a decision completed) and
    [qaq.probe.ahead_waits.stop] (drains by the stop test).

    A PROBE decision enters at the cascade's starting tier.  A
    [Resolved] outcome completes the object; a [Shrunk] outcome (from
    a proxy tier) is re-classified — a narrower interval is still a
    valid imprecision model, so the verdict may become definite.  A
    definite NO is consumed like a probed MAYBE that resolved NO; a
    definite YES whose residual laxity fits [l_q^max] forwards
    imprecise (rule (a)); anything else escalates to the next tier with
    the {e new} verdict and laxity (a definite YES must then resolve to
    a precise YES, as a scanned YES must, or the run raises
    {!Inconsistent_probe}).  The policy is not re-consulted on
    escalation (no rng draw), so the decision stream is identical to an
    oracle-only run.  A permanent failure at a proxy tier fails over to
    the next tier ([qaq.probe.tier.<name>.failovers]); only an oracle
    failure degrades.  Probes and batches are metered per tier
    ({!Cost_meter.charge_probe_tier}) and mirrored to the
    [qaq.probe.tier.<name>.*] counters, summing to the aggregate
    [qaq.probes]/[qaq.batches] so reconciliation still holds.

    [on_progress] is invoked after every {e settled} object — read and
    forwarded/ignored, or probe-resolved — with the number of objects
    settled so far and the guarantees that would hold if the answer were
    closed now: the progressive-refinement view.  Recall climbs towards
    [r_q] while precision and laxity stay within bounds throughout
    (under enforcement); with batching, pending probes are still counted
    unseen, which only understates the guarantees.  Useful for live
    dashboards and for studying convergence; see the [trace] helper.

    [enforce] (default [true]) filters the policy through Theorem 3.1, in
    which case the returned guarantees always satisfy the requirements.
    With [enforce = false] the policy's first preference is executed
    unconditionally — the answer may then miss the precision or recall
    bound, and {!Quality.meets} on the report tells whether it did.  The
    paper's Greedy baseline behaves this way in the §5.2 trials (its cost
    is reported as constant across precision bounds it cannot actually
    honour), so the raw mode exists to reproduce those rows faithfully.

    @raise Inconsistent_probe as documented above. *)

val trace :
  rng:Rng.t ->
  ?every:int ->
  instance:'o instance ->
  cascade:'o Cascade.t ->
  policy:Policy.t ->
  requirements:Quality.requirements ->
  'o source ->
  'o report * (int * Quality.guarantees) list
(** Run and record the guarantee trajectory: one [(reads, guarantees)]
    sample every [every] objects (default 1), in settlement order.  The
    trajectory is how the answer's quality converges — the progressive
    view the paper contrasts with one-shot evaluation in §6.
    @raise Invalid_argument if [every < 1]. *)

val cost : Cost_model.t -> 'o report -> float
(** Total cost [W] (Eq. 11, plus the batch term) of the run under a cost
    model. *)

val normalized_cost : Cost_model.t -> total:int -> 'o report -> float
(** [W / |T|], the unit the paper reports.  @raise Invalid_argument if
    [total <= 0]. *)
