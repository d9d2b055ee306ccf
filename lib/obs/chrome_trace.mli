(** Chrome-trace (catapult JSON) export of a run's trace events.

    A recorder collects {!Trace} events (via {!sink}) and per-lane
    [Domain_pool] task intervals (via {!on_task}) into one timeline,
    exported in the trace-event JSON format that [chrome://tracing] and
    Perfetto open directly.  Spans ({!Trace.Phase}) and pool tasks render
    as duration slices — tasks on one timeline row ("thread") per pool
    lane — and everything else (reads, decisions, batches, replans) as
    instant markers on lane 0, where the sequential decision loop runs.

    Events carrying a {!Trace.context} with a query trace ID render on
    a dedicated per-query timeline row (tid [1000 + id], named
    ["query N (tenant)"] after the query's first event) with explicit
    [query]/[tenant] args, so one query's events read straight out of
    interleaved server traffic.

    The recorder stores what a {!Flight_recorder} stores — stamped
    [(time, context, event)] triples — plus pool tasks, in recording
    order, and renders them at export through {!json_of_entries}'s code
    path: for one event stream and clock, with one lane and no tasks,
    whose first event is stamped at the recorder's creation, the
    document {!write} saves is [json_of_entries] of the same triples.

    The recorder is thread-safe: {!on_task} may fire from worker
    domains while lane 0 emits trace events. *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to {!Span.default_clock}; use the {e same} clock as
    the [Obs.t] feeding the sink or the slices will not line up.
    Exported timestamps are relative to creation time. *)

val sink : t -> Trace.sink
(** A sink recording every event; pass to [Obs.create ~trace] (possibly
    {!Trace.tee}d with a formatter sink). *)

val on_task : t -> lane:int -> start:float -> finish:float -> unit
(** Record one pool task as a slice on lane [lane]'s timeline row —
    shaped to partially apply as [Domain_pool]'s [?on_task] hook. *)

val declare_lanes : t -> int -> unit
(** Declare the pool's lane count so the export names every lane's row
    up front, even lanes that end up running no task.
    @raise Invalid_argument if [lanes < 1]. *)

val events : t -> int
(** Entries recorded so far. *)

val write : t -> string -> unit
(** [write t path] saves the complete [{"traceEvents": [...]}] document
    to [path]: thread-name metadata for every declared lane, then all
    entries in timestamp order (microsecond units, as the format
    specifies). *)

val json_of_entries : (float * Trace.context * Trace.event) list -> string
(** Render a bare list of timestamped, attributed events — e.g. a
    flight-recorder dump — as a standalone chrome-trace document, with
    the same per-query rows and args as the live {!sink}.  Times are
    relative to the earliest timestamp in the list, so the dump starts
    at t=0. *)
