(** Bounded black-box recorder ("flight recorder") for run-level trace
    events.

    Keeps the last [capacity] run-level events — phases, batches, probe
    failures, degradations, breaker changes, replans, budget stops,
    early terminations, shortfalls and notes — in one ring behind one
    mutex, so the {!sink} can sit on a concurrent server's shared trace
    path.  The per-object events ({!Trace.Read}, {!Trace.Decision},
    {!Trace.Probe_resolved}) are dropped at the door, before the clock
    read and the lock: a ring of a few hundred slots cannot usefully
    keep a scan's thousands of them, and every served query would pay
    for the attempt.  A query's history is the ring filtered by its
    trace ID.

    When an anomaly event passes through — {!Trace.Degraded}, a
    {!Trace.Breaker} trip into ["open"], {!Trace.Budget_stop}, or
    {!Trace.Shortfall} — the recorder snapshots the implicated query's
    recent history (the whole ring for uncorrelated anomalies) into a
    {!dump} and hands it to the [on_dump] callback, outside the lock.
    Each (reason, query) pair dumps at most once and at most 16 dumps
    are retained, so a flapping breaker cannot flood the disk. *)

type t

type stamped = float * Trace.context * Trace.event
(** An event as recorded: wall-clock time, attribution, payload. *)

type dump = {
  reason : string;
      (** ["degraded"], ["degraded-forced"], ["breaker-open"],
          ["budget-stop"], ["shortfall"], or the caller's string for
          {!manual_dump} *)
  query : int option;  (** the implicated query, when attributed *)
  tenant : string option;
  at : float;  (** when the anomaly fired *)
  events : stamped list;  (** ring contents, oldest first *)
}

val create :
  ?capacity:int ->
  ?clock:(unit -> float) ->
  ?on_dump:(dump -> unit) ->
  unit ->
  t
(** [capacity] (default 256) bounds the ring.  [on_dump] fires on every
    automatic dump, after the lock is released.
    @raise Invalid_argument if [capacity < 1]. *)

val sink : t -> Trace.sink
(** Records every run-level event with its context; tee with other
    sinks. *)

val record : t -> Trace.context -> Trace.event -> unit
(** The function behind {!sink}, for direct use. *)

val entries : ?query:int -> t -> stamped list
(** Current ring contents, oldest first: all of it, or only the given
    query's entries. *)

val dumps : t -> dump list
(** Automatic dumps so far, oldest first. *)

val manual_dump : ?query:int -> t -> reason:string -> dump
(** Snapshot the current ring ({!entries}) on demand (the [RECORDER]
    verb); not counted against the 16 retained dumps and not handed to
    [on_dump]. *)

val dump_to_json : dump -> string
(** The dump as a standalone chrome-trace document
    ({!Chrome_trace.json_of_entries}). *)

val dump_filename : dump -> string
(** A stable, filesystem-safe name for the dump
    (["flight-q7-breaker-open.json"]). *)

val recorded : t -> int
(** Run-level events recorded since creation (not bounded by capacity). *)
