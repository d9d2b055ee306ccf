(** Per-run profile: cost, phases, distributions and a quality audit.

    The paper's contract is a cost/quality trade: a run is only as good
    as the precision and recall it {e delivered} for the work it
    charged.  A [Profile.t] packages one run's verdict — the cost-meter
    counts, whether they reconciled with the [qaq.*] counters, the span
    timers, every histogram's quantiles, and a quality audit comparing
    the requested [p_q]/[r_q] against both the operator's guarantees and
    (when a ground-truth oracle is available) the {e achieved} precision
    and recall — renderable as JSON or as human tables.

    Construction is pure: everything is computed from a metric snapshot
    and the numbers the caller already has, so profiling a run cannot
    perturb it.  [Engine.run ?profile] assembles one per query. *)

type counts = {
  reads : int;
  probes : int;
  batches : int;
  writes_imprecise : int;
  writes_precise : int;
}
(** Mirror of [Cost_meter.counts] (restated here so the profile layer
    stays below the cost layer in the dependency graph). *)

type achieved = {
  answer_in_exact : int;  (** answer objects the oracle accepts *)
  exact_size : int;  (** size of the exact answer per the oracle *)
  achieved_precision : float;
  achieved_recall : float;
  precision_pass : bool;  (** achieved >= requested *)
  recall_pass : bool;
}
(** Ground-truth side of the audit.  Degenerate denominators follow
    [Quality.Diagnostics]: an empty answer is vacuously precise, an
    empty exact answer fully recalled. *)

type budget_audit = {
  b_allotted : float;  (** cost units allotted ([infinity] = deadline only) *)
  b_spent : float;  (** total metered spend at completion *)
  b_target_recall : float;
      (** the dual planner's reachable recall target (the requested
          recall when the budget did not bind at planning time) *)
  b_limited : bool;
      (** the budget bound the run: the planner capped the target below
          the requested recall, or the scan was stopped by the budget or
          deadline before reaching it *)
}
(** Budget side of the audit for a time-budgeted (anytime) run. *)

type audit = {
  requested_precision : float;
  requested_recall : float;
  guaranteed_precision : float;
  guaranteed_recall : float;
  guarantees_met : bool;  (** guarantees >= requirements *)
  answer_size : int;
  degraded_probes : int;
      (** objects whose probe failed permanently and degraded to an
          imprecise write decision; a non-zero value flags the run as
          degraded in {!render} and {!to_json} *)
  budget : budget_audit option;  (** [None] for unbudgeted runs *)
  achieved : achieved option;  (** [None] without an oracle *)
}

type span_row = { span_name : string; calls : int; seconds : float }

type t = {
  label : string;
  counts : counts;
  reconcile_error : string option;
      (** [Some msg] when the cost meter and the [qaq.*] counters
          disagreed — unmetered or uninstrumented work *)
  audit : audit;
  spans : span_row list;  (** extracted from the [span.*] metrics *)
  snapshot : Metrics.snapshot;  (** the run's full metric delta *)
}

val make :
  ?label:string ->
  counts:counts ->
  snapshot:Metrics.snapshot ->
  requested_precision:float ->
  requested_recall:float ->
  guaranteed_precision:float ->
  guaranteed_recall:float ->
  guarantees_met:bool ->
  answer_size:int ->
  ?degraded_probes:int ->
  ?budget:budget_audit ->
  ?ground_truth:int * int ->
  ?reconcile_error:string ->
  unit ->
  t
(** [ground_truth] is [(answer_in_exact, exact_size)]; the achieved
    rates and pass flags are derived here.  [degraded_probes] defaults
    to 0 (an unfaulted run).  [budget] attaches the anytime context of a
    budgeted run.  [label] defaults to ["run"]. *)

val audit_passed : t -> bool
(** Guarantees met, and — when ground truth was supplied — achieved
    precision and recall both at least the requested values.  On a
    budget-limited run ({!budget_audit.b_limited}) the recall shortfall
    is the contract, not a failure: only the precision checks apply. *)

val passed : t -> bool
(** {!audit_passed} and no reconciliation error. *)

val to_json : t -> string
(** One self-contained JSON object (label, passed, counts, audit,
    spans, and the full metric snapshot under ["metrics"]). *)

val render : t -> string
(** Human tables ({!Text_table}): cost counts, the quality audit,
    phase timers and histogram quantiles. *)

val print : t -> unit
