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
    a typo such as [recal=0.99], or an empty one as in [=1] — a
    non-numeric value, a negative [quota], requirements out of range,
    or the reserved tenant name {!Slo.all_tenant}, ["_all"], which
    names the SLO aggregate) is answered [ERR ...] and queues nothing.

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
  c_probe_ms : float;  (** simulated backend latency per batch *)
  c_admission : admission;
  c_domains : int option;  (** domains for RUN *)
  c_fault_rate : float;
      (** probability a backend probe fails permanently (deterministic
          per [c_fault_seed]); 0 disables injection entirely *)
  c_fault_seed : int;
  c_tiers : Probe_tier.spec array option;
      (** the probe cascade: one shared backend per tier (proxies
          narrow with {!Synthetic.shrink}, the oracle resolves), and
          every RUN query gets a {!Probe_broker.cascade_client}.  [None]
          is the oracle-only cascade
          [Probe_tier.oracle_only ~cost:Cost_model.paper ~batch:c_batch],
          whose backend keeps fault site ["server-backend"] and seed
          [c_fault_seed].  STATS adds per-tier [TIER <name>] lines when
          there is more than one tier. *)
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

val create : ?clock:(unit -> float) -> config -> t
(** Build a server: generate the dataset, wire the broker (with fault
    injection and breaker per the config) and the telemetry stack.
    [clock] (default wall time) drives the recorder timestamps and the
    SLO windows — inject a fake clock in tests.
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
