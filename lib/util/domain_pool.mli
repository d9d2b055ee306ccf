(** A fixed pool of worker domains for deterministic data parallelism.

    OCaml 5 exposes hardware parallelism through domains, but spawning a
    domain is far too expensive to do per chunk of work.  A [Domain_pool]
    spawns its workers once and feeds them chunk tasks through a shared
    queue; the caller's own domain is lane 0 and works the queue
    alongside the workers instead of blocking, so a pool of [domains = d]
    really computes on [d] lanes with [d - 1] spawned domains.

    Everything here is deterministic from the caller's point of view:
    {!parallel_map} splits the input into contiguous chunks, each chunk
    is mapped in index order, and the per-chunk results are concatenated
    in chunk order — the result equals [Array.map f arr] whatever the
    scheduling, which is what lets the QaQ engine keep the paper's
    sequential semantics while classifying on every core (see
    [Scan_pipeline]).

    A pool is owned by the domain that created it: submitting work from
    several domains at once is not supported.  Worker domains idle on a
    condition variable between calls and cost nothing while the pool is
    quiescent. *)

type t

val create :
  ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
  ?domains:int ->
  unit ->
  t
(** [create ~domains ()] spawns [domains - 1] workers.  [domains]
    defaults to {!Domain.recommended_domain_count}[ ()].  With
    [domains = 1] no domain is spawned and every operation degrades to
    its sequential equivalent — the graceful fallback for single-core
    hosts.

    [on_task] is invoked after every completed task with its lane and
    wall-clock interval ([Unix.gettimeofday], the same clock
    {!busy_seconds} accumulates) — the hook the Chrome-trace exporter
    uses to draw one timeline row per lane.  It runs on the lane that
    ran the task, concurrently with other lanes' hooks, so it must be
    thread-safe; exceptions it raises are swallowed.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int
(** The lane count [d] (workers plus the caller's lane). *)

val parallel_map : t -> ?chunk_size:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map t f arr] is [Array.map f arr], computed on all lanes.
    The input is cut into contiguous chunks of [chunk_size] (default:
    about 8 chunks per lane); chunks are mapped concurrently and merged
    by chunk index, so the result is independent of scheduling as long
    as [f] is pure.  [f] must not touch the pool itself.

    If any application of [f] raises, the first exception (in completion
    order) is re-raised in the caller with its backtrace once every
    chunk has settled; there is no cancellation of in-flight chunks.
    @raise Invalid_argument if [chunk_size < 1]. *)

val run_all : t -> (unit -> 'a) array -> 'a array
(** [run_all t thunks] evaluates every thunk, one task each, and returns
    their results in input order — the coarse-grained face of
    {!parallel_map} for running independent configurations (e.g. whole
    experiment sweeps) on separate domains. *)

val busy_seconds : t -> float array
(** Per-lane wall-clock seconds spent running tasks since {!create};
    index 0 is the caller's lane.  The length equals {!domains}. *)

val shutdown : t -> unit
(** Drain nothing (no tasks can be pending between calls), stop the
    workers and join their domains.  Idempotent; the pool must not be
    used afterwards. *)

val with_pool :
  ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
  ?domains:int ->
  (t -> 'a) ->
  'a
(** [with_pool ~domains f] runs [f] over a fresh pool and shuts it down
    on exit, normal or exceptional. *)

(** {2 Lanes that lend themselves out while a task waits on I/O}

    {!run_lanes} runs independent tasks (a server's batch of queries) on
    a few lanes.  A lane runs one task at a time: only the thread holding
    the lane's {e token} (a mutex) runs task code.  When that thread is
    about to wait on a remote backend it calls {!blocking}, which gives
    the token up for the wait; if tasks are still queued, the lane first
    starts a helper thread that takes the token and the next task, so
    the lane computes while its task waits.  The holder takes the token
    back when the wait ends (after the helper next gives it up).  Waits
    that are not I/O go through {!wait}, which gives the token up but
    starts no helper. *)

val run_lanes : lanes:int -> (unit -> 'a) array -> 'a array
(** [run_lanes ~lanes tasks] runs every task and returns their results
    in input order.  [min lanes n] lanes (the caller's domain is lane 0,
    the others are domains spawned for the call) take the tasks from
    one shared queue in index order.  A lane keeps at most 16 threads
    alive, its own included, and every helper has finished when the
    call returns.

    A raising task does not stop the others: once every task has
    finished, the exception of the lowest-indexed raising task is
    re-raised with its backtrace.

    Tasks run concurrently, so results equal [Array.map] of the solo
    calls only when the tasks share no state that depends on their
    interleaving.  A task must not call {!run_lanes}, and tasks must
    not share a pool (a pool is owned by one domain).
    @raise Invalid_argument if [lanes < 1]. *)

val blocking : (unit -> 'a) -> 'a
(** [blocking f] is [f ()], run by a thread of a {!run_lanes} lane with
    the lane's token given up, so that other tasks of the lane run while
    [f] waits.  If tasks are still queued and the lane has no helper
    waiting for the token already, a helper thread is started first.
    [f] must only wait (sleep, read a socket, ...): it runs concurrently
    with the lane's next task, and must not touch the lane's state or
    hold a lock that task code takes.  Outside a lane it is just
    [f ()].  The token is retaken before [blocking] returns or
    re-raises. *)

val wait : Condition.t -> Mutex.t -> unit
(** [wait c m] is [Condition.wait c m] that gives the calling lane's
    token up while it waits, and starts no helper.  On waking it
    releases [m], retakes the token and then retakes [m]: the lock order
    is token first, [m] second, so a thread waiting for a token never
    holds [m].  Callers re-check their condition in a loop, as with
    [Condition.wait]; state guarded by [m] may change while [m] is
    released.  Outside a lane it is just [Condition.wait c m]. *)

val env_var : string
(** ["QAQ_DOMAINS"] — the environment variable {!resolve} consults. *)

val resolve : ?domains:int -> unit -> int
(** The lane count an entry point should use: the explicit [domains]
    argument if given, else the {!env_var} environment variable, else 1.
    The env fallback lets a whole test suite or CI job exercise the
    parallel path without touching call sites.
    @raise Invalid_argument if [domains < 1] or the variable is set to
    anything but a positive integer. *)
