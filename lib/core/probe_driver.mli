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
    exactly once.

    {2 Tickets: split-phase batches}

    A batch is resolved in two phases.  {!dispatch} (or a {!submit} that
    fills the queue) {e sends} the batch to the backend and returns its
    {!ticket}; {!complete} {e awaits} the backend's answer, does the
    accounting and runs the batch's callbacks.  A backend answers a send
    with a {!reply}: [Ready] when the outcomes are there at once (every
    in-memory resolver, and so every {!create_outcomes} driver), or
    [Later await] when they are still on their way — [await] blocks for
    whatever is left of the backend's latency.  {!submit_outcome} and
    {!flush} complete a batch the moment it is sent, which is the
    synchronous driver; a caller that holds tickets (the operator's
    probe-ahead, see {!Operator.run}) keeps working while a [Later]
    batch is in the backend and completes its tickets, per driver, in
    dispatch order.  {!ahead} is how many batches the driver lets such
    a caller keep in flight; [0] means every batch is completed at
    dispatch. *)
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

type 'o reply =
  | Ready of 'o outcome array  (** the backend answered at dispatch *)
  | Later of (unit -> 'o outcome array)
      (** the answer is on its way: calling the function waits for it
          (once) and returns the outcomes *)
(** A backend's answer to one sent batch: one outcome per object, in
    submission order, same length. *)

val create :
  ?obs:Obs.t ->
  ?batch_size:int ->
  ?ahead:int ->
  ('o array -> 'o reply) ->
  'o t
(** [create ~batch_size ~ahead send] wraps a split-phase backend:
    [send] receives each batch's objects in submission order and
    replies [Ready] or [Later].  [ahead] (default 0) is the most batches
    a ticket-holding caller may keep in flight on this driver; a backend
    whose probes can fail, or whose answers depend on when they are
    asked, must keep it at 0.  [obs] is as for {!create_outcomes}; both
    phases of a batch run under the [probe-flush] span.
    @raise Invalid_argument if [batch_size < 1] or [ahead < 0]. *)

val create_outcomes :
  ?obs:Obs.t -> ?batch_size:int -> ('o array -> 'o outcome array) -> 'o t
(** [create_outcomes ~batch_size resolve_batch] wraps a native batch
    resolver.  [resolve_batch] receives the queued objects in submission
    order and must return one outcome per object in the same order (same
    array length) — the only way a backend can fail one element without
    discarding its resolved siblings.  [batch_size] defaults to 1.

    [obs] registers the histogram [probe_driver.flush_seconds], times
    every resolver invocation under the [probe-flush] span, and emits a
    {!Trace.Batch} event per completed batch (plus a
    {!Trace.Probe_failed} event per failed element).  The driver counts
    batches only ({!batches}); outcomes are counted where they are
    consumed, by the operator's [qaq.probe.tier.*] tallies and its
    meter (see {!Operator.run}).

    @raise Invalid_argument if [batch_size < 1]. *)

val shrinking : ?batch_size:int -> ('o array -> 'o array) -> 'o t
(** [shrinking narrow_batch] wraps a proxy backend: every submission
    comes back [Shrunk (narrow_batch o)] — an object whose imprecision
    interval the proxy narrowed without resolving it to a point. *)

val scalar : ('o -> 'o) -> 'o t
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

val ahead : 'o t -> int
(** The most dispatched batches a caller may hold in flight at once
    ({!create}'s [ahead]; [0] for {!create_outcomes} drivers). *)

val pending : 'o t -> int
(** Submissions queued and not yet dispatched. *)

type 'o ticket
(** One dispatched batch, sent and not yet completed. *)

val submit : 'o t -> 'o -> ('o outcome -> unit) -> 'o ticket option
(** [submit t o k] enqueues [o] like {!submit_outcome}; when the queue
    reaches [batch_size t] the batch is sent and its ticket returned.
    The callbacks run only when the ticket is {!complete}d. *)

val dispatch : 'o t -> 'o ticket option
(** Send every queued submission now (a possibly short batch) and
    return its ticket; [None] on an empty queue.
    @raise Invalid_argument when called from inside the backend. *)

val ready : 'o ticket -> bool
(** Whether the backend answered at dispatch ([Ready]): completing the
    ticket then waits for nothing. *)

val size : 'o ticket -> int
(** The number of objects in the batch. *)

val complete : 'o ticket -> unit
(** Await the batch's outcomes (a [Later] reply waits here), account
    the batch and run its callbacks in submission order.  Completing a
    ticket again is a no-op.  A caller holding several tickets of one
    driver completes them in dispatch order.
    @raise Invalid_argument if the backend changed the batch length. *)

val submit_outcome : 'o t -> 'o -> ('o outcome -> unit) -> unit
(** [submit_outcome t o k] enqueues [o] for resolution; [k] is invoked
    with its {!outcome} when the batch containing [o] is resolved —
    failures arrive as values, never as exceptions.  If the queue
    reaches [batch_size t] the batch is flushed immediately, so with
    [batch_size = 1] the callback runs before [submit_outcome] returns.
    Callbacks run in submission order and may themselves submit
    (starting a fresh queue). *)

val flush : 'o t -> unit
(** Resolve every queued submission now (a possibly short batch) and
    run the callbacks in submission order: {!dispatch}, then
    {!complete}.  A no-op on an empty queue.  Tickets the caller holds
    are its own to complete.

    @raise Invalid_argument when called from inside the batch resolver
    itself (a reentrant flush would resolve entries out of order). *)

val batches : 'o t -> int
(** Total (non-empty) batches completed over the driver's lifetime —
    the number of times the fixed per-batch cost was paid.  Consumers
    that meter costs (see {!Operator.run}) track this counter by delta,
    so a driver may be shared across runs like a meter. *)
