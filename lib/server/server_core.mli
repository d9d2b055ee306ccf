(** The qaq-server engine room: dataset, cross-query broker, line
    protocol and live telemetry, as a library.

    [bin/qaq_server] is a thin cmdliner wrapper over this module;
    tests and benchmarks drive the same server in-process by calling
    {!serve} over a channel pair.

    Line protocol (one request per line; [key=value] tokens):

    {v
    QUERY [tenant=T] [seed=N] [p=0.9] [r=0.6] [l=50] [quota=N]
                   register a query            -> QUEUED id=...
    RUN            run every queued query      -> RESULT ... lines, DONE ...
    STATS          broker lifetime statistics  -> STATS ...
                   (plus one TIER line per backend when tiered)
    TENANTS        per-tenant statistics       -> TENANT ... lines, OK
    METRICS        the metrics registry as one JSON line
    HEALTH         overall rolling SLO + recorder/breaker state
    SLO [tenant]   per-tenant rolling SLO      -> SLO ... lines, OK
    RECORDER [trace-id|last]
                   flight-recorder ring (all of it, or one query's
                   entries) / last anomaly dump as chrome-trace JSON,
                   then OK
    HELP           command summary
    QUIT           close the session           -> BYE
    v}

    A malformed QUERY (a bare token, a key other than the six above —
    a typo such as [recal=0.99], or an empty one as in [=1] — a key
    given twice, as in [r=0.99 r=0.5], a non-numeric value, a negative
    [quota], requirements out of range, the reserved tenant name
    {!Slo.all_tenant}, ["_all"], which names the SLO aggregate, or a
    tenant name that is empty or has a byte outside 0x21-0x7E, such as
    a tab or a control character) is answered [ERR ...] and queues
    nothing.

    A line longer than 65,536 bytes, its newline not counted, is read
    on to its newline without being kept and answered with one
    [ERR line longer than 65536 bytes]; the session goes on.

    A tenant name, in [QUERY] or [SLO], holds at most 64 bytes; a longer
    one is answered [ERR tenant name longer than 64 bytes].  At most
    4,096 queries wait for [RUN]: the next [QUERY] is answered
    [ERR queue full (4096 queries)] and queues nothing, and [RUN] still
    runs the queued ones.  Both limits are constants, and the session
    goes on after either [ERR].

    [quota=N] caps the admitted backend probes of the query's tenant
    ({!Probe_broker.client}'s [quota]).  A tenant pays only for the
    probes admitted for it: a request that joins another query's probe
    in flight, or that the freshness cache answers, is free.  So when
    queries run at once — more than one lane, or one lane lent out
    during a [c_probe_ms] wait — which query reaches an object first
    decides who pays, and a quota'd query's [RESULT] can differ from run
    to run.  One lane with [c_probe_ms = 0] runs the queries one at a
    time in queue order, and a quota'd script then replays exactly.

    [SLO a b] is [ERR usage: SLO [tenant]]; [SLO T] with a byte outside
    0x21-0x7E in [T] gets the QUERY name's [ERR].  An [SLO] read never
    registers a tenant: an unknown one reads as idle and stays out of
    the [SLO] listing and the Prometheus file.

    Telemetry: every RUN mints a per-query trace ID, stamps the query's
    engine events and its broker client's probe events with it
    ({!Trace.context}), records the run-level ones — phases, batches,
    probe failures, degradations, breaker changes, stops, shortfalls,
    not per-object reads and decisions — in one bounded
    {!Flight_recorder} ring (auto-dumping the implicated query's
    entries on degradation, breaker trips, budget stops and guarantee
    shortfalls), and feeds each finished query into rolling per-tenant
    {!Slo} windows.  [HEALTH recorded=N] counts those run-level events.
    [RESULT] lines carry [trace=N] and [elapsed=seconds] so a client
    can correlate protocol responses with trace dumps. *)

type admission = Degrade | Reject

type config = {
  c_seed : int;  (** dataset seed *)
  c_total : int;  (** dataset size |T| *)
  c_f_y : float;  (** fraction of YES objects *)
  c_f_m : float;  (** fraction of MAYBE objects *)
  c_max_laxity : float;
  c_batch : int;  (** broker batch size B *)
  c_capacity : int option;  (** shared probe capacity; unlimited if None *)
  c_freshness : float;  (** freshness window, seconds *)
  c_probe_ms : float;
      (** simulated backend latency per batch.  A positive latency
          makes each round split-phase: the send answers [Later] and the
          await sleeps for what is left of the latency, lending the lane
          ({!Domain_pool.blocking}), so without a breaker, a capacity, a
          quota or faults a query keeps scanning while its batches are
          in the backend (probe-ahead, {!Operator.run}).  At 0 every
          round answers at dispatch and no thread is started. *)
  c_admission : admission;
  c_domains : int option;
      (** lanes for RUN (default: one per core; a RUN never takes more
          lanes than cores, see {!Engine.execute_many}).  Without a
          breaker a lane runs its next query while its query waits on
          the backend latency ({!Domain_pool.blocking}), so one lane can
          have several queries in flight, and the broker lets every
          query in flight keep a backend round of its own
          ({!Probe_broker.create}'s [rounds] is {!Engine.default_lanes},
          whatever the lane count).  With a breaker a lane runs one
          query at a time and the broker one round at a time. *)
  c_fault_rate : float;
      (** probability a backend probe fails permanently; 0 disables
          injection.  A fault is decided per object and tier, from
          [c_fault_seed], the tier's site ["server-backend.<name>"] and
          the object's id ({!Fault_plan.permanent}): a failed object
          fails for every query that asks that tier for it, so a
          [c_fault_seed] replay does not depend on [c_domains] or on
          how queries interleave.  Each failed object counts into
          [qaq.fault.injected], registered only when the rate is
          positive. *)
  c_fault_seed : int;
  c_tiers : Probe_tier.spec array option;
      (** the probe cascade: one shared backend per tier (proxies
          narrow with {!Synthetic.shrink}, the oracle resolves), and
          every RUN query gets a {!Probe_broker.cascade_client}.  [None]
          is the oracle-only cascade
          [Probe_tier.oracle_only ~cost:Cost_model.paper ~batch:c_batch].
          STATS adds per-tier [TIER <name>] lines when there is more
          than one tier. *)
  c_breaker : bool;  (** put a {!Circuit_breaker} on the broker *)
  c_recorder : int;
      (** flight-recorder ring capacity, in run-level events shared by
          every query; 0 disables *)
  c_recorder_dir : string option;
      (** where automatic anomaly dumps are written as chrome-trace
          JSON files (kept in memory regardless) *)
  c_window : float;  (** rolling SLO window, seconds *)
  c_prom : string option;
      (** Prometheus text file, rewritten after every RUN *)
  c_trace : bool;  (** also format every trace event to stderr *)
}

val default_config : config
(** The bin defaults: seed 2004, 10000 objects, batch 8, unlimited
    capacity, infinite freshness, no simulated latency, [Degrade]
    admission, no faults, no breaker, recorder capacity 256, 60 s SLO
    window, no Prometheus file, no stderr trace. *)

type t

exception Recorder_dir_error of { dir : string; reason : string }
(** [c_recorder_dir] names a path that is not, and cannot be made, a
    directory. *)

val create : config -> t
(** Build a server: generate the dataset, wire the broker (with fault
    injection and breaker per the config) and the telemetry stack.  The
    wall clock drives the recorder timestamps and the SLO windows.
    @raise Recorder_dir_error when the recorder is on and
    [c_recorder_dir] cannot be created as a directory. *)

val obs : t -> Obs.t
val broker : t -> Synthetic.obj Probe_broker.t
val recorder : t -> Flight_recorder.t option

val serve : t -> in_channel -> out_channel -> [ `Quit | `Eof ]
(** One session over a channel pair; [`Quit] when the client asked to
    stop the server, [`Eof] when the stream ended. *)

val serve_socket : t -> string -> unit
(** Listen on a Unix domain socket, serving connections one at a time
    until a client sends QUIT. *)
