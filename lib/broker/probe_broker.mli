(** Cross-query probe broker: shared batching, deduplication and
    admission control in front of a probe backend.

    The paper prices every query as if it owned the probe channel, but
    the expensive resource — probes into imprecise objects — is
    naturally shared: when N in-flight queries all need object [o]
    refreshed, charging N probes is pure waste.  A broker sits between
    many concurrent queries and one backend and serves them from shared
    probe capacity:

    {ul
    {- {e Coalescing}: requests for an object that is already queued or
       in flight join its waiter list — one probe is charged and the
       outcome fans out to every waiter.}
    {- {e Freshness}: an object probed within the freshness window is
       served from the broker's cache without touching the backend at
       all — the generalisation of the per-object probe cache the band
       join has always used.}
    {- {e Cross-query batch packing}: requests from different queries
       accumulate in shared per-tenant queues, and a dispatch drains
       them round-robin up to the batch size — partially-filled batches
       from different queries merge into full ones, so the amortized
       [c_p + c_b/B] price is actually achieved under concurrency
       instead of only per query.}
    {- {e Admission control}: a shared capacity, per-tenant quotas and
       an optional {!Circuit_breaker} bound what the backend can be
       asked to do.  A request refused by admission settles as
       [Failed { attempts = 0 }] — the PR-5 degradation outcome — so a
       query over a saturated broker degrades gracefully through the
       operator's guarantee-aware fallback instead of erroring.}}

    Clients are ordinary {!Probe_driver}s ({!client}), so a query's
    engine path is unchanged; a {e single} query through the broker is
    bit-for-bit identical to the direct driver path (same batches, same
    outcomes, same per-query accounting), while a shared workload
    charges the backend strictly fewer probes than the sum of solo runs
    whenever any object overlaps.

    {e Tiers.}  A broker fronts a probe cascade ({!create}): one
    backend per {!Probe_tier} tier, cheapest first; a plain oracle is a
    one-backend cascade.  Queueing, coalescing and freshness are
    per [(object, tier)] — each dispatch round serves exactly one tier
    — with one asymmetry: a cached {e point} ([Resolved], from any
    tier) satisfies a request at {e every} tier, while a cached
    {e narrowed interval} ([Shrunk]) only satisfies its own tier, so a
    proxy-fresh object requested at the oracle still escalates and
    pays.  {!cascade_client} packages the tier-pinned clients as a
    {!Cascade} for [Operator.run].

    The broker is safe for concurrent use from many domains.  Each
    {e client driver} must still be confined to one domain at a time
    (drivers are not thread-safe); give every concurrent query its own
    client.  The backend resolvers are invoked by at most [rounds]
    threads at a time — the current dispatchers, one per round in
    flight ([rounds] defaults to 1) — so with the default an
    unsynchronised backend (e.g. {!Probe_source}) works unmodified; a
    broker created with [rounds > 1] needs resolvers that are safe to
    call from that many threads at once.  For results to be independent
    of scheduling, the resolver must be a pure function of the
    submitted object.

    A client waiting for a round in flight waits with
    {!Domain_pool.wait}: inside a {!Domain_pool.run} lane it
    gives the lane's token up (so another query of the lane can run,
    possibly the one whose round it waits on) and on waking retakes the
    token before the broker lock.  A backend may wait with
    {!Domain_pool.blocking}; it runs without the broker lock.

    {e Split-phase rounds and tickets.}  A backend answers a round's
    send with a {!Probe_driver.reply}.  [Ready] settles the round at
    once; [Later await] leaves the round out, and any client that waits
    on the broker completes it — the oldest unclaimed round first — by
    calling [await] (which should lend the lane with
    {!Domain_pool.blocking} for what is left of the backend's latency)
    and settling its requests.  A client's flush therefore returns a
    ticket ({!Probe_driver.create}) as soon as its batch is queued and
    whatever rounds the free slots allow are sent: [Ready] if every
    request settled on the way (fresh hits, rejections, [Ready]
    rounds), [Later] otherwise.  Waiting on the ticket drives the
    broker until the batch's requests settle, completing rounds that
    may belong to other clients on the way.  A client lets its query
    keep up to [rounds] tickets in flight ({!Probe_driver.ahead}),
    unless a probe can fail — a fallible backend, a [capacity], a
    [breaker] or a [quota] — in which case every ticket completes at
    dispatch. *)

type 'o t

(** One probe backend — a cascade tier. *)
type 'o backend = {
  bk_send : 'o array -> 'o Probe_driver.reply;
      (** same contract as {!Probe_driver.create}: outcomes in
          submission order, same length, [Ready] at once or [Later].
          May return [Resolved] (an oracle tier) or [Shrunk] (a proxy
          tier that narrowed the interval); the broker interprets only
          the outcome kind *)
  bk_batch : int;  (** this tier's backend batch bound [B] *)
  bk_fallible : bool;
      (** whether the backend may answer [Failed]: its clients then
          complete every batch at dispatch *)
}

val backend :
  batch:int ->
  ('o array -> 'o Probe_driver.outcome array) ->
  'o backend
(** [backend ~batch resolve] is an in-memory backend that answers every
    round at once ([Ready]).  It counts as fallible: its rounds
    complete at dispatch anyway, so no client reads ahead of them. *)

val create :
  ?obs:Obs.t ->
  ?clock:(unit -> float) ->
  ?freshness:float ->
  ?capacity:int ->
  ?breaker:Circuit_breaker.t ->
  ?rounds:int ->
  key:('o -> int) ->
  'o backend array ->
  'o t
(** [create ~key backends] builds a broker over a cascade of backends,
    cheapest first (tier 0 is the cheapest proxy, the last is typically
    the oracle); a plain oracle is the one-backend array
    [[| { bk_resolve; bk_batch } |]].  [key] must identify an object
    uniquely — two objects with the same key are considered the same
    probe target.  Requests name their tier ({!client}'s [?tier]); each
    dispatch round drains at most [bk_batch] requests of one tier,
    round-robin across tenants, into that tier's resolver.

    [freshness] (seconds, default [infinity]) is the window within
    which a completed probe is a free hit; [0.] disables the cache
    entirely (every request reaches the backend).  Failed probes are
    never cached — a later request retries.  [capacity] (default
    unlimited) caps the {e admitted} backend probes over the broker's
    lifetime; once exhausted, new probe targets settle as
    [Failed { attempts = 0 }] (coalesced and fresh requests still
    succeed — they cost nothing).  [breaker] consults
    {!Circuit_breaker.allow} per dispatch round: a refused round
    settles its whole batch as [Failed { attempts = 0 }] without
    touching the backend, and backend rounds feed
    [record_success]/[record_failure].  Admission (capacity, quotas)
    and the breaker are shared across tiers — they protect the probe
    subsystem as a whole.

    [rounds] (default 1) bounds the dispatch rounds in flight at once,
    across all tiers, and is also how many tickets each client lets its
    query keep in flight.  With 1, a client whose requests are queued waits
    while another client's round is in the backend, and those requests
    pack into the next round's batch.  With [k > 1], up to [k] clients
    each drive a round of their own concurrently, so concurrent queries
    stop taking turns on a slow backend; the resolvers must then be
    safe to call from [k] threads at once.  Size [k] by the queries in
    flight, not by the domains: a lane that lends itself out while its
    query waits ({!Domain_pool.blocking}) has several queries in
    flight, each of which may want a round of its own.  Per-query
    accounting is unaffected either way.

    [clock] (default: [obs]'s clock, else wall time) stamps freshness
    and the queue-wait histogram.  [obs] registers the
    [qaq.broker.*] counters and histograms ({!Obs.Keys}).

    @raise Invalid_argument on an empty backend array, a
    [bk_batch < 1], [capacity < 0], [rounds < 1], or negative/NaN
    [freshness]. *)

val client :
  ?obs:Obs.t ->
  ?tenant:string ->
  ?quota:int ->
  ?tier:int ->
  'o t ->
  'o Probe_driver.t
(** [client t] is the broker as a per-query probe capability: a driver
    with its tier's batch bound whose dispatches send through the
    shared broker and return tickets (see above).  Hand one to
    {!Engine.run} (or, wrapped by [Cascade.of_driver], to
    {!Operator.run}) and the query runs unchanged — its answer and its
    own probes/batches accounting are what they would have been solo,
    while the backend is only charged for work no other query already
    paid for.

    [tenant] (default ["default"]) attributes the client's requests for
    fair round-robin scheduling, per-tenant statistics and [quota] —
    a cap on the tenant's admitted backend probes (across all of the
    tenant's clients; the tightest quota registered for a tenant wins).
    Beyond the quota, the tenant's new probe targets degrade like
    capacity exhaustion; other tenants are unaffected.  Only requests
    admitted for the tenant count against its quota: one that joins
    another client's request in flight, or that the freshness window
    answers, is free.  Which tenant pays for a shared object therefore
    depends on which request arrives first, so a quota'd query's answer
    depends on the schedule whenever clients run at once; clients run
    one after another charge the same way every time.

    [obs] is the {e query's} observability capability: the client's
    driver registers its per-query probe instruments there and emits
    its batch/failure events on its trace sink — and when this client
    happens to be the domain driving a dispatch round, any circuit
    breaker state change that round causes is emitted on the same sink.
    Pass an [Obs.with_context] capability stamped with the query's
    trace ID — the same one the query's {!Engine.run} gets, as
    [Server_core] does — and everything the query triggers carries its
    trace ID.

    [tier] (default 0) pins the client to one backend tier: its batch
    size is that tier's [bk_batch] and its flushes dispatch against
    that tier's resolver.  A single-backend broker only has tier 0.

    Each client must be used from one domain at a time.
    @raise Invalid_argument if [quota < 0] or [tier] is out of
    range. *)

val cascade_client :
  ?obs:Obs.t ->
  ?tenant:string ->
  ?quota:int ->
  specs:Probe_tier.spec array ->
  'o t ->
  'o Cascade.t
(** The broker as a per-query {!Cascade}: tier [i]'s driver is
    [client ~tier:i t], so escalation decisions stay in the operator
    while every tier's backend is shared (coalesced, freshness-cached)
    across queries.  [specs] must match the broker's backends
    tier-for-tier — same count, same batch bounds; pricing fields feed
    the cascade's start-tier selection.
    @raise Invalid_argument on a mismatch or invalid specs. *)

val fetch : 'o t -> 'o -> 'o Probe_driver.outcome
(** Resolve one object through the broker synchronously — the scalar
    convenience the band join's probe cache is built on.  Equivalent to
    a one-element flush of a tier-0 client of tenant ["default"]: fresh
    hits are free, otherwise the request is admitted (or degraded) and
    dispatched. *)

val is_fresh : 'o t -> int -> bool
(** Whether a successful probe for this key is currently within the
    freshness window at {e some} tier — i.e. whether a request for it
    at some tier right now would be a free hit. *)

val pending : 'o t -> int
(** Requests admitted but not yet handed to the backend — the shared
    queue depth at this instant. *)

val rounds : 'o t -> int
(** The bound on dispatch rounds in flight at once, as created. *)

val saturated : 'o t -> bool
(** Whether the shared capacity is exhausted: every new probe target
    (from any tenant) will degrade until the end of the broker's life.
    Admission-control front ends ({!bin/qaq_server}) use this to reject
    queries outright instead of running them degraded. *)

type stats = {
  requests : int;  (** objects clients asked for, before dedup *)
  admitted : int;  (** requests enqueued for the backend *)
  charged : int;  (** backend probes resolved — the real spend *)
  failed : int;  (** admitted requests that failed permanently *)
  coalesced : int;  (** requests that joined a queued/in-flight probe *)
  fresh_hits : int;  (** requests served from the freshness window *)
  rejected : int;  (** requests degraded by admission control *)
  batches : int;  (** backend dispatches (the [c_b] charges) *)
}

val stats : 'o t -> stats
(** Lifetime totals.  [requests = admitted + coalesced + fresh_hits +
    rejected], and [charged + failed <= admitted] (the difference is
    still queued).  Reading the stats synchronises with the broker's
    lock, so the identity holds at any moment of a concurrent run. *)

val by_tier : 'o t -> stats array
(** Per-tier totals, index-aligned with the backends.  The {!stats}
    identity holds per tier, and the whole-broker totals are the
    element-wise sums. *)

val tenant_stats : 'o t -> (string * stats) list
(** Per-tenant totals ([batches] is 0 — dispatches are shared),
    sorted by tenant name.  A tenant appears once a client has named it
    ({!fetch} names ["default"]). *)
