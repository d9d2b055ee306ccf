(** Bounded black-box recorder ("flight recorder") for trace events.

    Keeps the last [capacity] events in a global ring and per-query
    rings keyed by trace ID, all behind one mutex so the {!sink} can
    sit on a concurrent server's shared trace path.  When an anomaly
    event passes through — {!Trace.Degraded}, a {!Trace.Breaker} trip
    into ["open"], {!Trace.Budget_stop}, or {!Trace.Shortfall} — the
    recorder snapshots the implicated query's recent history (the
    global ring for uncorrelated anomalies) into a {!dump} and hands it
    to the [on_dump] callback, outside the lock.  Each (reason, query)
    pair dumps at most once and at most [max_dumps] dumps are retained,
    so a flapping breaker cannot flood the disk. *)

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
  ?max_queries:int ->
  ?max_dumps:int ->
  ?clock:(unit -> float) ->
  ?on_dump:(dump -> unit) ->
  unit ->
  t
(** [capacity] (default 256) bounds each ring; [max_queries] (default
    64) bounds how many per-query rings are kept, evicting the least
    recently active; [max_dumps] (default 16) bounds retained automatic
    dumps.  [on_dump] fires on every automatic dump, after the lock is
    released.
    @raise Invalid_argument if [capacity < 1] or [max_queries < 1]. *)

val sink : t -> Trace.sink
(** Records every event with its context; tee with other sinks. *)

val record : t -> Trace.context -> Trace.event -> unit
(** The function behind {!sink}, for direct use. *)

val entries : ?query:int -> t -> stamped list
(** Current ring contents, oldest first: the global ring, or the given
    query's (empty when that query has no ring). *)

val dumps : t -> dump list
(** Automatic dumps so far, oldest first. *)

val manual_dump : ?query:int -> t -> reason:string -> dump
(** Snapshot the current ring on demand (the [RECORDER] verb); not
    counted against [max_dumps] and not handed to [on_dump]. *)

val dump_to_json : dump -> string
(** The dump as a standalone chrome-trace document
    ({!Chrome_trace.json_of_entries}). *)

val dump_filename : dump -> string
(** A stable, filesystem-safe name for the dump
    (["flight-q7-breaker-open.json"]). *)

val recorded : t -> int
(** Total events recorded since creation (not bounded by capacity). *)

val capacity : t -> int
