(** One process-wide pool of lanes for deterministic parallelism.

    OCaml 5 exposes hardware parallelism through domains, but spawning a
    domain costs far more than a chunk of work.  There is one pool per
    process.  Its worker domains are spawned on first demand, never more
    than [Domain.recommended_domain_count () - 1] of them, and are kept
    for every later call; an idle worker waits on a condition variable
    and does not keep the program from exiting.  A call's caller is its
    lane 0 and works alongside the workers it gets, so no call runs on
    more lanes than there are cores.  A call takes the idle workers it
    can and never waits for one: with none idle it runs on its caller
    alone.  So calls may nest (a task may call {!run} or {!map}) and
    several domains may call at once.

    {!map} is [Array.map] computed on the lanes: it splits the input
    into contiguous chunks, maps each chunk in index order and joins the
    chunks in order, so the result does not depend on scheduling, which
    is what lets the QaQ engine keep the paper's sequential semantics
    while classifying on every core (see [Scan_pipeline]).

    Both calls settle every task before they return.  If tasks raise,
    the exception of the lowest-indexed raising task (for {!map}, of the
    lowest raising element) is re-raised with its backtrace.

    [on_task], where given, is invoked after every task with the task's
    lane in [\[0, lanes)] and its wall-clock interval
    ([Unix.gettimeofday]): the hook the Chrome-trace exporter uses to
    draw one timeline row per lane, and the engine to charge lane
    busy-seconds.  It runs on the lane that ran the task, concurrently
    with other lanes' hooks, so it must be thread-safe; exceptions it
    raises are swallowed. *)

(** {2 Lanes that lend themselves out while a task waits on I/O}

    A lane runs one task at a time: only the thread holding the lane's
    {e token} (a mutex) runs task code.  When that thread is about to
    wait on a remote backend it calls {!blocking}, which gives the token
    up for the wait; if tasks of the call are still queued, the lane
    first starts a helper thread that takes the token and the next task,
    so the lane computes while its task waits.  The holder takes the
    token back when the wait ends (after the helper next gives it up).
    Waits that are not I/O go through {!wait}, which gives the token up
    but starts no helper.  A lane keeps at most 16 threads alive, its
    own included, and every helper has finished when the call returns. *)

val run :
  ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
  lanes:int ->
  (unit -> 'a) array ->
  'a array
(** [run ~lanes tasks] runs every task and returns their results in
    input order.  At most [min lanes n] lanes, capped at the core count,
    take the tasks from one shared queue in index order.  A raising task
    does not stop the others.  Tasks run concurrently, so results equal
    [Array.map] of the solo calls only when the tasks share no state
    that depends on their interleaving.  With [lanes = 1] no domain is
    involved: the tasks run on the caller, which still lends itself out
    at {!blocking}.
    @raise Invalid_argument if [lanes < 1]. *)

val map :
  ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
  lanes:int ->
  ?chunk_size:int ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map ~lanes f arr] is [Array.map f arr], its chunks of [chunk_size]
    elements (default: about 8 chunks per lane) run as tasks of {!run}.
    With [lanes = 1], or when [arr] fits in one chunk, it is
    [Array.map f arr] on the caller.  [f] should be pure: chunks run
    concurrently.
    @raise Invalid_argument if [lanes < 1] or [chunk_size < 1]. *)

val blocking : (unit -> 'a) -> 'a
(** [blocking f] is [f ()], run by a thread of a lane with the lane's
    token given up, so that other tasks of the lane's call run while [f]
    waits.  If tasks are still queued and the lane has no helper waiting
    for the token already, a helper thread is started first.  [f] must
    only wait (sleep, read a socket, ...): it runs concurrently with the
    lane's next task, and must not touch the lane's state or hold a lock
    that task code takes.  Outside a lane it is just [f ()].  The token
    is retaken before [blocking] returns or re-raises. *)

val wait : Condition.t -> Mutex.t -> unit
(** [wait c m] is [Condition.wait c m] that gives the calling lane's
    token up while it waits, and starts no helper.  On waking it
    releases [m], retakes the token and then retakes [m]: the lock order
    is token first, [m] second, so a thread waiting for a token never
    holds [m].  Callers re-check their condition in a loop, as with
    [Condition.wait]; state guarded by [m] may change while [m] is
    released.  Outside a lane it is just [Condition.wait c m]. *)

val resolve : ?domains:int -> unit -> int
(** The lane count an entry point should use: the explicit [domains]
    argument if given, else the [QAQ_DOMAINS] environment variable, else 1,
    capped at the core count ([Domain.recommended_domain_count ()]),
    since no call runs on more lanes than that.
    The env fallback lets a whole test suite or CI job exercise the
    parallel path without touching call sites.
    @raise Invalid_argument if [domains < 1] or the variable is set to
    anything but a positive integer. *)
