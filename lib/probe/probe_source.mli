(** Probe sources: how an imprecise object is resolved to its precise
    version [ω^o].

    A probe is the expensive operation of the paper — fetching the precise
    object from wherever it lives (the sensor itself, a remote archive,
    tertiary storage).  A source wraps the resolution function with
    latency simulation, optional transient-failure injection, and an
    optional {!Fault_plan} (scripted transient and permanent failures)
    so that examples and benchmarks can model realistic
    remote stores; the QaQ operator itself only sees the {!Probe_driver}
    capability.

    The source resolves natively in batches: {!probe_batch_outcomes}
    wakes the remote store once per round, resolving every pending
    object in that round together, so a batch of [B] pays one latency
    sample where [B] one-element batches pay [B].  {!driver} packages a
    source as the [Probe_driver] the operator consumes; an element that
    exhausts its retries settles as {!Probe_driver.Failed} and degrades
    instead of tearing down the run. *)

(** Latency charged per probe attempt, in arbitrary time units. *)
type latency =
  | Instant
  | Constant of float
  | Jittered of { base : float; jitter : float }
      (** uniform in [\[base, base + jitter\]] *)

type 'o t

val create :
  ?obs:Obs.t ->
  ?tier:string ->
  ?latency:latency ->
  ?failure_rate:float ->
  ?max_retries:int ->
  ?rng:Rng.t ->
  ?faults:Fault_plan.spec ->
  ('o -> 'o) ->
  'o t
(** [create resolve] builds a source around the resolution function, which
    must return an object of laxity 0 (the precise version).

    [latency] defaults to [Instant].  [failure_rate] (default 0) is the
    probability that one attempt fails transiently and is retried, up to
    [max_retries] (default 10) extra attempts; each attempt pays the
    latency.  [rng] is required if either latency jitter or failures are
    used.

    [faults] (default {!Fault_plan.none}) attaches a fault injector at
    site ["probe_source"]: injected transient failures compose with
    [failure_rate] (either one fails the attempt), injected {e permanent}
    elements fail every attempt and settle as {!Probe_driver.Failed}
    after the retry budget.  The injector draws from its own seeded stream, so a
    null plan — or the same source without one — behaves bit-for-bit
    identically.

    [obs] registers the counters [probe_source.attempts] and
    [probe_source.resolved] (mirroring {!stats}) and the histogram
    [probe_source.wakeup_latency] (one simulated latency per wakeup) —
    how retry storms and latency tails show up in a metrics dump.

    [tier] labels the source as one tier of a probe cascade: every
    source metric is prefixed [probe_source.<tier>.*] instead of
    [probe_source.*], retries (after a failure, injected or simulated)
    count into [qaq.probe.tier.<tier>.retried], and the fault-injector site
    becomes ["probe_source.<tier>"] (each tier draws an independent
    fault stream).  Without it, two tiers sharing an obs registry would
    lump their stats onto the same names and a degraded cascade could
    not be attributed in an SLO window.

    @raise Invalid_argument on a failure rate outside [0, 1), a
    negative retry count, or a [Constant] latency, [Jittered] [base] or
    [jitter] that is negative or not finite. *)

val probe_batch_outcomes :
  'o t -> 'o array -> 'o Probe_driver.outcome array
(** Resolve a batch, preserving order.  Each retry {e round} is one
    wakeup — one latency sample and one batch count for however many
    objects are still pending — while failures strike per element:
    elements that resolve in a round are kept, and only the failed ones
    ride along to the next round.  An element that fails
    [max_retries + 1] times settles as [Failed] with its attempt count;
    every sibling still resolves and every outcome is returned, so no
    partial-batch work is ever lost.  A one-element batch is the scalar
    probe: each attempt is its own wakeup. *)

val driver : ?obs:Obs.t -> ?batch_size:int -> 'o t -> 'o Probe_driver.t
(** The source as an operator-facing probe capability, resolving each
    driver flush with {!probe_batch_outcomes}.  [batch_size] defaults to
    1 (the scalar path).  [obs] instruments the driver itself (see
    {!Probe_driver.create_outcomes}); pass it to [create] as well to
    instrument the source underneath. *)

type stats = {
  probes : int;  (** successful probe operations *)
  attempts : int;  (** including failed attempts *)
  batches : int;  (** wakeups: batch rounds dispatched to the store *)
  simulated_latency : float;  (** total time units spent *)
}

val stats : 'o t -> stats
(** On a source labelled with a cascade tier ([create ?tier]), that
    tier's slice alone. *)
