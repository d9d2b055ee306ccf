(** A simulated sensor field with interval-cached readings.

    The replication-barrier scenario of §1.1 made concrete, following the
    approximate-replication architecture the paper builds on [12, 15]:
    each sensor continuously measures a drifting value; the query site
    caches an interval of width [2 · tolerance] around the last
    transmitted value.  The sensor transmits a re-centred interval only
    when its value escapes the cached one, so between transmissions the
    cache is a {e sound} imprecise replica — the true value is always
    inside.  Probing a sensor fetches the current precise value over the
    (simulated) network. *)

type t

val create :
  ?obs:Obs.t ->
  ?tier:string ->
  ?faults:Fault_plan.spec ->
  Rng.t ->
  n:int ->
  value_range:Interval.t ->
  tolerance_range:Interval.t ->
  drift_stddev:float ->
  t
(** [n] sensors with initial values uniform in [value_range].  Each
    sensor's tolerance (half its cache width) is drawn from
    [tolerance_range] (which must be positive); per-step drift is
    Gaussian.  [obs] registers the counters [sensor_net.transmissions],
    [sensor_net.probe_wakeups], [sensor_net.probe_messages],
    [sensor_net.retry_wakeups], [sensor_net.retry_messages] and
    [qaq.fault.retried], mirroring the accessors below.

    [tier] labels the net as one tier of a probe cascade: every metric
    above is prefixed [sensor_net.<tier>.*], retries additionally
    count into [qaq.probe.tier.<tier>.retried], and the fault-injector
    site becomes ["sensor_net.<tier>"] so each tier draws an
    independent fault stream.

    [faults] (default {!Fault_plan.none}) attaches a fault injector at
    site ["sensor_net"]: sensors can fail attempts transiently or
    permanently, and scripted {!Fault_plan.outage} windows silence a
    sensor ([node] = [sensor_id]) for whole probe rounds.  A non-null
    plan also installs a {!Circuit_breaker} (default configuration)
    over the net's probe rounds; its retry budget is the plan's
    [max_retries].  @raise Invalid_argument on a non-positive tolerance
    range or [n < 0]. *)

val size : t -> int

val step : t -> unit
(** Advance every sensor by one time step: values drift; sensors whose
    value escaped the cached interval transmit a fresh centred
    interval. *)

val transmissions : t -> int
(** Total re-centring transmissions so far (the background replication
    cost of [12, 15]). *)

(** A snapshot record: what the query site knows about one sensor. *)
type reading = private {
  sensor_id : int;
  cached : Interval.t;  (** the interval replica *)
  current : float;  (** hidden truth at snapshot time *)
  resolved : bool;
}

val snapshot : t -> reading array
(** The query site's current view, suitable as a QaQ input set. *)

val instance : Predicate.t -> reading Operator.instance

val probe : reading -> reading
(** Resolve one reading (pure; no network accounting). *)

val probe_batch_outcomes :
  t -> reading array -> reading Probe_driver.outcome array
(** Resolve a batch over the network: one radio {e wakeup} per retry
    round for however many sensors are still pending, one {e message}
    per sensor in the round.  Without faults the batch resolves in one
    round — the batched-probe cost model's [c_b] is the wakeup, [c_p]
    the per-sensor message.  Under a fault plan, failed sensors retry
    in later rounds until the budget runs out (settling as [Failed]
    with their attempt count), outage windows silence individual
    sensors, and the circuit breaker refuses rounds — waking no radio
    and burning no budget — while the net looks dead.  Breaker state
    changes emit {!Trace.Breaker} events when tracing. *)

val batch_driver : ?obs:Obs.t -> ?batch_size:int -> t -> reading Probe_driver.t
(** The network as an operator-facing probe capability resolving through
    {!probe_batch_outcomes}; [batch_size] defaults to 1 (one wakeup per
    probe). *)

val breaker : t -> Circuit_breaker.t option
(** The breaker guarding the net's probe rounds; [Some] exactly when a
    non-null fault plan was attached. *)

val rounds : t -> int
(** Probe rounds elapsed over the net's lifetime (including rounds the
    breaker refused) — the clock {!Fault_plan.outage} windows and the
    breaker run on. *)

val probe_wakeups : t -> int
(** Batch round-trips the network has served via {!probe_batch_outcomes}. *)

val probe_messages : t -> int
(** Individual sensor responses served via {!probe_batch_outcomes}. *)

val retry_wakeups : t -> int
(** Executed rounds {e beyond the first} of their batch — pure retry
    traffic, a slice of {!probe_wakeups}.  Breaker-refused rounds wake
    no radio and are not counted.  Before this split, retry rounds were
    lumped into {!probe_wakeups} and a degraded net's retry burn could
    not be told apart from normal probe traffic. *)

val retry_messages : t -> int
(** Sensor responses served in retry rounds — a slice of
    {!probe_messages}. *)

val in_exact : Predicate.t -> reading -> bool
val exact_size : Predicate.t -> reading array -> int
