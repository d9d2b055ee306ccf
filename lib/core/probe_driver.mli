(** Batched probe execution: the capability through which the operator
    resolves imprecise objects.

    The probe is the paper's expensive operation ([c_p = 100 c_r],
    §3.1), and real probe backends — sensor radios with duty cycles,
    remote archives, tertiary storage — charge a fixed per-request setup
    cost on top of the per-object marginal.  A driver therefore exposes
    probing as [submit_outcome]/[flush]: submissions accumulate in a
    queue and are resolved together, [batch_size] at a time, so that the
    fixed cost ([c_b] in {!Cost_model}) is paid once per batch instead
    of once per probe.

    A driver with [batch_size = 1] resolves every submission on the spot
    and reproduces the scalar probe semantics exactly; see
    {!Operator.run} for the invariants the operator maintains around
    deferred resolutions.

    Every probe ends as an {!outcome}.  A backend that exhausts its
    retry budget on an element reports it [Failed]; every sibling in the
    batch still receives its own outcome, and the batch is accounted
    exactly once. *)

type 'o t

type 'o outcome =
  | Resolved of 'o  (** the precise version of the submitted object *)
  | Shrunk of 'o
      (** a proxy tier narrowed the object's imprecision interval —
          still a valid imprecise model, possibly still indefinite; the
          consumer re-classifies and escalates residuals (see
          {!Cascade}) *)
  | Failed of { attempts : int }
      (** the backend gave up after [attempts] tries; the object will
          never resolve and must degrade (see {!Operator}) *)

val create_outcomes :
  ?obs:Obs.t -> ?batch_size:int -> ('o array -> 'o outcome array) -> 'o t
(** [create_outcomes ~batch_size resolve_batch] wraps a native batch
    resolver.  [resolve_batch] receives the queued objects in submission
    order and must return one outcome per object in the same order (same
    array length) — the only way a backend can fail one element without
    discarding its resolved siblings.  [batch_size] defaults to 1.

    [obs] registers the counters [probe_driver.probes] and
    [probe_driver.batches] and the histogram
    [probe_driver.flush_seconds], times every resolver invocation under
    the [probe-flush] span, and emits a {!Trace.Batch} event per dispatch
    (plus a {!Trace.Probe_failed} event per failed element).

    @raise Invalid_argument if [batch_size < 1]. *)

val shrinking :
  ?obs:Obs.t -> ?batch_size:int -> ('o array -> 'o array) -> 'o t
(** [shrinking narrow_batch] wraps a proxy backend: every submission
    comes back [Shrunk (narrow_batch o)] — an object whose imprecision
    interval the proxy narrowed without resolving it to a point. *)

val scalar : ?obs:Obs.t -> ('o -> 'o) -> 'o t
(** [scalar probe] lifts a scalar resolution function into a driver with
    batch size 1: every submission resolves immediately to
    [Resolved (probe o)].  This is the pre-batching behaviour, bit for
    bit. *)

val of_scalar : ?obs:Obs.t -> batch_size:int -> ('o -> 'o) -> 'o t
(** [of_scalar ~batch_size probe] lifts a scalar resolver but batches
    submissions anyway: resolution is still element-wise, yet per-batch
    accounting ([batches], and hence the [c_b] charge) is amortized —
    the right model for a backend whose fixed cost is dominated by the
    round trip, not the per-object work. *)

val batch_size : 'o t -> int
(** The batch boundary [B]: [submit_outcome] resolves the queue
    whenever it reaches this many pending entries. *)

val pending : 'o t -> int
(** Submissions queued but not yet resolved. *)

val submit_outcome : 'o t -> 'o -> ('o outcome -> unit) -> unit
(** [submit_outcome t o k] enqueues [o] for resolution; [k] is invoked
    with its {!outcome} when the batch containing [o] is resolved —
    failures arrive as values, never as exceptions.  If the queue
    reaches [batch_size t] the batch is flushed immediately, so with
    [batch_size = 1] the callback runs before [submit_outcome] returns.
    Callbacks run in submission order and may themselves submit
    (starting a fresh queue). *)

val flush : 'o t -> unit
(** Resolve every pending submission now (a possibly short batch) and
    run the callbacks in submission order.  A no-op on an empty queue.

    @raise Invalid_argument when called from inside the batch resolver
    itself (a reentrant flush would resolve entries out of order). *)

val probes : 'o t -> int
(** Total objects {e successfully} resolved over the driver's lifetime
    — failed elements are counted by {!failures}, not here, so probe
    metering charges only work the backend actually completed. *)

val shrinks : 'o t -> int
(** Total elements that came back [Shrunk] over the driver's lifetime
    — counted separately from {!probes} ([Resolved] only) so tiered
    metering can attribute each to its own tier price. *)

val failures : 'o t -> int
(** Total elements whose resolution failed permanently. *)

val batches : 'o t -> int
(** Total (non-empty) batch resolutions over the driver's lifetime —
    the number of times the fixed per-batch cost was paid.  Consumers
    that meter costs (see {!Operator.run}) track this counter by delta,
    so a driver may be shared across runs like a meter. *)
