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

val create : ?obs:Obs.t -> unit -> t
(** A closed breaker.  Three consecutive failed rounds trip it; the
    first open window is 2 rounds, doubled on every re-trip from
    half-open and capped at 64 rounds.  [obs] keeps the
    [qaq.fault.breaker_state] gauge current (0 closed, 1 half-open, 2
    open) and observes each completed open window's length into
    [qaq.fault.outage_rounds]. *)

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
    immediately with a grown window; from closed it trips once three
    consecutive failures accumulate. *)
