(** A small LRU buffer pool over fetch-by-index storage units.

    The pool caches whatever the loader produces for an integer key — in
    this engine, decoded column chunks ({!Column_store.chunk}, via the
    streaming store of [Dataset_io.open_columnar]).  The simulated
    storage charges one fetch per miss; hits are free.  This substrate
    exists to make the storage layer a faithful miniature of a database
    engine and to let benchmarks show how caching interacts with partial
    scans (low-recall queries touch a prefix of the file and benefit
    most from re-use across queries).

    The pool is safe for concurrent use from many domains: every
    operation, {e including the loader call on a miss}, runs under the
    pool's mutex, so two domains fetching the same page never load it
    twice — the second blocks until the first has inserted the entry
    and then takes a hit.  Consequently the loader must not call back
    into the same pool (the mutex is not reentrant), and loads
    serialize; for the cheap simulated-storage decodes cached here,
    single-load correctness is worth far more than load concurrency. *)

type 'a t
(** A pool caching values of type ['a], e.g. a decoded column chunk. *)

val create : ?obs:Obs.t -> capacity:int -> unit -> 'a t
(** [obs] registers the counters [buffer_pool.hits], [buffer_pool.misses]
    and [buffer_pool.evictions], incremented alongside {!stats}.
    @raise Invalid_argument if [capacity < 1]. *)

val fetch : 'a t -> int -> (int -> 'a) -> 'a
(** [fetch pool id load] returns the cached value or loads, caches and
    returns it, evicting the least-recently-used entry if full.

    A {e raising} [load] counts as a miss — the access happened and the
    cache could not serve it — but leaves the pool otherwise untouched:
    nothing is inserted, no eviction is charged, and every cached entry
    survives, because the LRU victim is only evicted after the
    replacement actually arrived.  {!stats} after a failed load
    therefore shows one extra miss, unchanged evictions, and
    the hit rate [hits / (hits + misses)] correspondingly counts the
    failure against the pool. *)

val contains : 'a t -> int -> bool

type stats = { hits : int; misses : int; evictions : int }

val stats : 'a t -> stats
(** Lifetime counters since creation.  [misses]
    includes fetches whose loader raised; [evictions] counts only
    entries actually removed for a successfully loaded replacement. *)

