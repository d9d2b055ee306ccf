(** Registry of named monotonic counters, gauges and histograms.

    The observability substrate for the whole engine: every instrumented
    component registers its counters here by name, a snapshot captures
    all of them at once, and the snapshot exports to JSON or
    Prometheus-style text.  Counters are monotonic ints (work performed:
    reads, probes, batch dispatches); gauges are floats free to move in
    either direction (accumulated latency, span durations); histograms
    record whole value distributions (latencies, laxities, success
    probabilities) in fixed log-spaced buckets with quantile estimation.

    The registry is deliberately independent of {!Cost_meter}: the two
    accountings are maintained at separate instrumentation sites, so a
    test can assert that they reconcile — any future code path that does
    work without charging it (or charges it without instrumenting it)
    breaks the equality instead of silently skewing an experiment. *)

type t
(** A mutable registry.  Concurrency-safe: every update and
    {!snapshot} runs under one per-registry lock, so a snapshot taken
    while other domains write never captures a torn state. *)

val create : unit -> t

val atomically : t -> (unit -> 'a) -> 'a
(** [atomically t f] runs [f] holding the registry lock, so a group of
    related updates (e.g. a request counter plus exactly one of its
    outcome counters) becomes indivisible with respect to {!snapshot}
    and other [atomically] blocks.  The lock is re-entrant: metric
    operations inside [f] (including registration) are fine.  Keep [f]
    short — it stalls every other writer on this registry. *)

type counter
(** A named monotonic integer counter. *)

type gauge
(** A named float gauge. *)

type histogram
(** A named log-bucketed distribution of non-negative values. *)

val counter : t -> string -> counter
(** [counter t name] returns the counter registered under [name],
    creating it (at 0) on first use.  Handles are stable: resolve once,
    increment many times — the hot path pays no table lookup.
    @raise Invalid_argument if [name] is registered as another kind, or
    if its Prometheus exposition name collides with a different metric's
    (e.g. ["a.b"] vs ["a_b"] — mangling is lossy, so ambiguous names are
    rejected at registration). *)

val gauge : t -> string -> gauge
(** Get-or-create, like {!counter}.
    @raise Invalid_argument as for {!counter}. *)

val histogram : t -> string -> histogram
(** Get-or-create, like {!counter}.  A histogram additionally reserves
    the [_bucket]/[_sum]/[_count] exposition names its Prometheus series
    use.
    @raise Invalid_argument as for {!counter}. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment (counters are
    monotonic). *)

val count : counter -> int
val set : gauge -> float -> unit
val level : gauge -> float

val observe : histogram -> float -> unit
(** Record one value.
    @raise Invalid_argument on a non-finite or negative value (same
    contract as [Hist1d]: bad observations are call-site bugs, not data). *)

(** {2 Run-local tallies}

    A hot loop that would otherwise take the registry lock on every
    observation fills a {!tally} of its own instead and merges it once
    ({!merge_tally}), so the loop pays neither the lock nor contention
    with other writers, and a snapshot sees the whole batch or none of
    it. *)

type tally
(** An unlocked histogram accumulator: count, sum, min, max and the
    fixed layout's buckets (see "Bucket layout" below), in constant
    space.  Owned by one
    domain at a time. *)

val tally : unit -> tally
(** An empty tally. *)

val tally_observe : tally -> float -> unit
(** Record one value, without locking or allocating.
    @raise Invalid_argument as for {!observe}. *)

val merge_tally : histogram -> tally -> unit
(** Add the tally's count, sum and buckets to the histogram and fold in
    its extrema, in one step under the registry lock (inside an
    enclosing {!atomically} block too).  Counts and buckets equal those
    of observing the same values one by one; the sum may differ in the
    last bits once the histogram already held values.  Merging an
    empty tally changes nothing. *)

(** {2 Bucket layout}

    All histograms share one fixed layout: bucket 0 holds the smallest
    values (including zeros), later buckets grow by [2{^1/4}] per step
    (≤ ~19% relative error), and the last bucket is the overflow with an
    infinite bound. *)

type dist = {
  d_count : int;
  d_sum : float;
  d_min : float;  (** [+inf] when empty *)
  d_max : float;  (** [-inf] when empty *)
  d_buckets : int array;  (** one count per bucket of the layout *)
}
(** An immutable histogram capture. *)

val quantile : dist -> float -> float
(** [quantile d q] estimates the [q]-quantile ([q] clamped to [0, 1])
    from the buckets: the geometric midpoint of the bucket holding the
    rank, clamped to the observed [min]/[max] — so a single observation
    is returned exactly.  [nan] when the capture is empty. *)

val dist_observe : dist -> float -> dist
(** Functional observe: a fresh capture with one more value recorded —
    the building block for windowed (rolling) histograms that keep a
    [dist] per time slice.
    @raise Invalid_argument as for {!observe}. *)

val merge_dist : dist -> dist -> dist
(** Element-wise union of two captures (counts, sums and buckets add;
    extrema combine) — the same layout everywhere makes this total. *)

val empty_dist : dist

type value = Count of int | Level of float | Dist of dist

type snapshot = (string * value) list
(** Name-sorted point-in-time capture of every registered metric. *)

val snapshot : t -> snapshot
val get : snapshot -> string -> value option

val count_of : snapshot -> string -> int
(** The counter value under that name; 0 when absent or not a counter
    (an unregistered counter never counted anything). *)

val dist_of : snapshot -> string -> dist option
(** The histogram capture under that name, when it is one. *)

val diff : later:snapshot -> earlier:snapshot -> snapshot
(** Per-name delta: counters subtract ([later - earlier], with names
    absent from [earlier] treated as 0); histograms subtract counts,
    sums and buckets (their [min]/[max] keep the later capture's, which
    still bound the window); gauges keep the later level.  Names only in
    [earlier] are dropped. *)

val to_json : snapshot -> string
(** A flat JSON object, one member per metric; non-finite gauge levels
    export as [null]; histograms export as nested objects with
    [count]/[sum]/[min]/[max]/[p50]/[p90]/[p99]. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition: a [# TYPE] line and a sample per metric,
    with names mangled to the Prometheus charset (dots become
    underscores; collisions were rejected at registration).  Histograms
    expose the standard cumulative [_bucket{le="..."}] series (empty
    buckets elided, ["+Inf"] always present) plus [_sum] and [_count]. *)

val json_escape : string -> string
(** JSON string-body escaping, shared with the other exporters. *)
