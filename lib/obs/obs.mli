(** The observability capability threaded through the engine.

    An [Obs.t] bundles a {!Metrics} registry, a {!Trace} sink and the
    clock {!Span} timings use.  Every instrumented entry point takes an
    optional [?obs] argument; passing [None] (the default) keeps the
    pre-observability behaviour — no counters, no events, no timing, and
    no allocation on the per-object path.

    {!Keys} names the counters whose totals must reconcile exactly with
    {!Cost_meter.counts} at the end of a run — the "all work is metered"
    invariant.  Producers increment these at their own instrumentation
    sites, {e not} by mirroring the meter, so the reconciliation test
    catches either side going unmetered. *)

type t

val create : ?trace:Trace.sink -> ?clock:(unit -> float) -> unit -> t
(** A fresh capability with its own empty metrics registry.  [trace]
    defaults to {!Trace.null}; [clock] (default {!Span.default_clock},
    wall time — the clock [Domain_pool] also charges lane busy-seconds
    with) drives {!span}, {!now} and the latency histograms. *)

val metrics : t -> Metrics.t
val trace : t -> Trace.sink

val with_context : t -> Trace.context -> t
(** A view sharing this capability's metrics registry and clock whose
    sink is [Trace.with_context ctx (trace t)]: every emitted event is
    stamped as belonging to the given query/tenant — how a server
    derives per-query capabilities from one shared [Obs.t]. *)

val clock : t -> unit -> float
val now : t -> float
(** The capability's clock — instrumentation sites time their own work
    with this so all durations in one run are on one clock. *)

val counter : t -> string -> Metrics.counter
val gauge : t -> string -> Metrics.gauge
val histogram : t -> string -> Metrics.histogram

val tracing : t -> bool
(** Whether the trace sink is live; guard event construction with it. *)

val event : t -> Trace.event -> unit

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()] into [span.<name>.seconds] /
    [span.<name>.calls] (see {!Span.time}).  When the trace sink is
    live, a {!Trace.Phase} event with the same duration is emitted at
    completion — that is how spans reach the Chrome-trace exporter. *)

val snapshot : t -> Metrics.snapshot

(** Canonical metric names shared across the engine. *)
module Keys : sig
  val reads : string
  (** Objects read and classified — by the operator's scan {e and} the
      planner's sample; reconciles with {!Cost_meter.counts.reads}. *)

  val probes : string
  val batches : string
  val writes_imprecise : string
  val writes_precise : string

  val sample_reads : string
  (** The planning sample alone (a subset of {!reads}). *)

  val parallel_chunks : string
  (** Blocks classified by {!Scan_pipeline}'s cursor: row blocks on
      more than one lane, columnar waves on any lane count (0 on a
      sequential row run). *)

  val pruned_pages : string
  (** Whole [Column_store] chunks a pruned [Scan_pipeline.store] scan skipped
      because their zone hull is a definite NO — work that was {e not}
      done, hence never metered as reads.  A chunk counts as one
      page. *)

  val parallel_domains : string
  (** Gauge: the lane count a run asked for. *)

  val domain_busy : int -> string
  (** [domain_busy i] names the gauge holding lane [i]'s busy seconds
      (lane 0 is the caller's domain). *)

  val maybe_laxity : string
  (** Histogram: laxity [l(o)] of every MAYBE object at decision time —
      the distribution the optimizer's thresholds cut through. *)

  val maybe_success : string
  (** Histogram: success probability [s(o)] of every MAYBE object at
      decision time. *)

  val broker_requests : string
  (** Probe requests arriving at the cross-query {!Probe_broker} —
      every object a client asked for, before dedup. *)

  val broker_admitted : string
  (** Requests admitted for backend dispatch (a subset of
      {!broker_requests}; the rest were coalesced, served fresh, or
      rejected). *)

  val broker_charged : string
  (** Backend probes actually resolved — the shared resource really
      spent.  Under overlap this is strictly below what the same
      queries would charge solo. *)

  val broker_coalesced : string
  (** Requests that joined an already queued or in-flight probe for
      the same object: one probe charged, the result fanned out. *)

  val broker_fresh_hits : string
  (** Requests served from a probe completed within the freshness
      window — no backend work at all. *)

  val broker_rejected : string
  (** Requests degraded to [Failed] by admission control (shared
      capacity or tenant quota exhausted, or the breaker open). *)

  val broker_batches : string
  (** Backend batch dispatches — how often the per-batch setup cost
      was actually paid across all queries. *)

  val broker_batch_fill : string
  (** Histogram: objects per dispatched backend batch — cross-query
      packing shows up as fill above any single query's partial
      flushes. *)

  val broker_queue_wait : string
  (** Histogram: seconds a request spent between arriving at the
      broker and its outcome being settled.  A round whose backend
      answers later settles when a client first waits on it, so under
      probe-ahead this includes time an answered round sat unclaimed
      while its clients kept scanning: it measures when outcomes reach
      the clients, not backend queueing alone. *)

  val tier_probes : string -> string
  (** [tier_probes name] names the counter of probes {e resolved or
      shrunk} at cascade tier [name] — summed over tiers this equals
      {!probes}, so per-tier reconcile implies the base reconcile. *)

  val tier_batches : string -> string
  (** Backend batch dispatches at cascade tier [name]. *)

  val tier_shrinks : string -> string
  (** Probes at tier [name] that came back [Shrunk] (a narrower
      interval, not a point) — a subset of that tier's probes. *)

  val tier_failovers : string -> string
  (** Probes that failed permanently at tier [name] and were escalated
      to the next tier instead of degrading the answer. *)

  val tier_retried : string -> string
  (** Attempts retried at tier [name] after an injected (or simulated)
      failure struck it — which tier of a degraded cascade is burning
      its retry budget. *)

  val ahead_waits_guard : string
  (** Probe-ahead tickets a YES/MAYBE decision completed before they
      were due, because the outcomes still in flight could change its
      action ({!Operator.run}).  Registered, with {!ahead_waits_stop},
      only by runs that can hold tickets. *)

  val ahead_waits_stop : string
  (** Times probe-ahead's stop test completed every ticket in flight,
      because their outcomes could end the scan or flush a partial
      batch ({!Operator.run}).  The final flush and a tier's cap are
      counted by neither this nor {!ahead_waits_guard}. *)

  val fault_injected : string
  (** Injected fault decisions that fired: failed attempts
      ({!Fault_plan}). *)

  val fault_degraded : string
  (** Objects whose probe failed permanently and that fell back to the
      guarantee-aware imprecise write decision ({!Operator}). *)

  val fault_breaker_state : string
  (** Gauge: circuit-breaker state (0 closed, 1 half-open, 2 open). *)

  val fault_outage_rounds : string
  (** Histogram: lengths (in rounds) of circuit-breaker open windows. *)
end
