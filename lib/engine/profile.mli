(** Per-run profile: cost, phases, distributions and a quality audit.

    The paper's contract is a cost/quality trade: a run is only as good
    as the precision and recall it {e delivered} for the work it
    charged.  A [Profile.t] packages one run's verdict — the cost-meter
    counts, whether they reconciled with the [qaq.*] counters, the span
    timers, every histogram's quantiles, and a quality audit comparing
    the requested [p_q]/[r_q] against both the operator's guarantees and
    (when a ground-truth oracle is available) the {e achieved} precision
    and recall — renderable as JSON or as human tables.

    A profile is a fold over a finished run: {!of_run} reads the
    {!Engine.result}, the metric registry the run was given and the
    source it scanned.  Nothing is threaded through the run, so
    profiling cannot perturb it. *)

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
  budget : Engine.budget_summary option;  (** the run's [budget] *)
  achieved : achieved option;  (** [None] without an oracle *)
}

type span_row = { span_name : string; calls : int; seconds : float }

type t = {
  label : string;
  counts : Cost_meter.counts;  (** the whole run's, planning included *)
  reconcile_error : string option;
      (** [Some msg] when the cost meter and the [qaq.*] counters
          disagreed — unmetered or uninstrumented work *)
  audit : audit;
  spans : span_row list;  (** extracted from the [span.*] metrics *)
  snapshot : Metrics.snapshot;  (** the run's full metric delta *)
}

val of_run :
  ?label:string ->
  ?oracle:('o -> bool) ->
  earlier:Metrics.snapshot ->
  Obs.t ->
  'o Scan_pipeline.t ->
  'o Engine.result ->
  t
(** [of_run ~earlier obs source result] profiles the finished run
    [result = Engine.run ~obs ... source].  [earlier] is
    [Obs.snapshot obs] taken just before that call: the profile's
    [snapshot] is the registry now minus [earlier], so a registry that
    carries earlier runs' totals still profiles this run alone (a fresh
    registry may pass [[]]).  Fold before anything else touches [obs]:
    a concurrent or later run's work would land in the delta.  The
    delta is reconciled with the run's meter ([result.reconcile]); a
    mismatch lands in [reconcile_error] rather than raising.  With
    [oracle] the audit carries the ground truth ({!achieved}):
    [oracle o] answers whether [o] belongs to the exact (precise)
    answer, and is asked of every object in [report.answer] (so the run
    needs the default [collect:true]) and of every object a fresh cursor
    of the source yields.  Pass the source the run scanned; a pruned
    store's cursor skips only chunks with no exact member.  [label]
    defaults to ["run"]. *)

val passed : t -> bool
(** No reconciliation error, the guarantees met, and — when ground
    truth was supplied — achieved precision and recall both at least the
    requested values.  On a budget-limited run ([budget_limited]) the
    recall shortfall is the contract, not a failure: only the precision
    checks apply. *)

val to_json : t -> string
(** One self-contained JSON object (label, passed, counts, audit,
    spans, and the full metric snapshot under ["metrics"]). *)

val render : t -> string
(** Human tables ({!Text_table}): cost counts, the quality audit,
    phase timers and histogram quantiles. *)

val print : t -> unit
