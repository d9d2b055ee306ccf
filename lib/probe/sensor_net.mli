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
  Rng.t ->
  n:int ->
  value_range:Interval.t ->
  tolerance_range:Interval.t ->
  drift_stddev:float ->
  t
(** [n] sensors with initial values uniform in [value_range].  Each
    sensor's tolerance (half its cache width) is drawn from
    [tolerance_range] (which must be positive); per-step drift is
    Gaussian.  @raise Invalid_argument on a non-positive tolerance
    range, a negative or non-finite [drift_stddev], or [n < 0]. *)

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
(** Resolve one reading.  Probing over the simulated network — radio
    wakeups, per-sensor messages, latency and failures — is
    [Probe_source.create Sensor_net.probe]: its {!Probe_source.stats}
    count one wakeup ([batches]) per batch round and one message
    ([attempts]) per sensor in the round. *)

val in_exact : Predicate.t -> reading -> bool
val exact_size : Predicate.t -> reading array -> int
