(** Phase timing recorded into a {!Metrics} registry.

    [time metrics name f] runs [f ()] and accumulates its duration into
    the gauge [span.<name>.seconds] and its completion into the counter
    [span.<name>.calls] — even when [f] raises.  The clock defaults to
    {!default_clock} (monotonic-enough wall time, the same clock
    [Domain_pool] charges lane busy-seconds with, so a span over a
    parallel phase is comparable to the lanes' busy time); inject a fake
    clock in tests for deterministic durations. *)

val seconds_key : string -> string

val default_clock : unit -> float
(** Wall-clock seconds ({!Unix.gettimeofday}).  [Sys.time] would not do:
    it counts this process's CPU seconds only, so time spent on worker
    domains or sleeping in (simulated) I/O vanishes from the span. *)

val time : ?clock:(unit -> float) -> Metrics.t -> string -> (unit -> 'a) -> 'a
