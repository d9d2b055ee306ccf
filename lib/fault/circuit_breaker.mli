(** A circuit breaker over probe rounds, with exponential backoff.

    Remote stores that are down fail {e fast} in real systems: after a
    few consecutive failed rounds the client stops hammering the store
    and waits, doubling the wait after each unsuccessful recovery
    attempt.  The breaker guards the dispatch rounds of
    {!Probe_broker} (the server's [--breaker]) and counts rounds, not
    wall time, so its behaviour is deterministic and replayable.

    States: {e closed} (all traffic flows), {e open} (rounds are
    refused until the backoff window has passed), {e half-open} (the
    backoff expired; one probe round is allowed through — success
    closes the breaker, failure re-opens it with a doubled window). *)

type state = Closed | Open | Half_open

type t

val create :
  ?obs:Obs.t ->
  ?trip_after:int ->
  ?backoff_base:int ->
  ?backoff_factor:float ->
  ?max_backoff:int ->
  unit ->
  t
(** [trip_after] (default 3) consecutive failed rounds trip the
    breaker; the first open window is [backoff_base] (default 2)
    rounds, multiplied by [backoff_factor] (default 2) on every
    re-trip from half-open, capped at [max_backoff] (default 64)
    rounds.  [obs] keeps the [qaq.fault.breaker_state] gauge current
    (0 closed, 1 half-open, 2 open) and observes each completed open
    window's length into [qaq.fault.outage_rounds].
    @raise Invalid_argument if [trip_after < 1], [backoff_base < 1],
    [backoff_factor] is below 1 or NaN, or [max_backoff < backoff_base]. *)

val state : t -> state

val state_name : state -> string
(** ["closed"] / ["open"] / ["half-open"] — the strings
    {!Trace.Breaker} events carry. *)

val allow : t -> round:int -> bool
(** Whether a probe round may run at [round].  Closed and half-open
    always allow; open refuses until [round] reaches the end of the
    backoff window, at which point the breaker moves to half-open and
    allows the recovery probe. *)

val record_success : t -> round:int -> unit
(** The round resolved at least one element: close the breaker and
    reset the consecutive-failure count and the backoff schedule. *)

val record_failure : t -> round:int -> unit
(** The round resolved nothing.  From half-open this re-trips
    immediately with a grown window; from closed it trips once
    [trip_after] consecutive failures accumulate. *)
