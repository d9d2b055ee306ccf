(** Pre-classification feeding the sequential QaQ decision loop, for
    both the row and the columnar layout.

    The per-object work of the scan — λ(o), l(o), s(o) — is pure and
    embarrassingly parallel; everything that carries the paper's
    guarantees (the Theorem 3.1 guards, the counters, the cost meter,
    the policy's randomized choices) is sequential.  So both sources
    here classify a block of input into flat verdict
    ([Tvl.to_char]-packed), laxity and success buffers, one disjoint
    slice per task on the pool's lanes, and {!Operator.run} reads them
    through one shared cursor ({!Operator.source}): its [verdict],
    [laxity] and [success] read the buffers (they ignore the instance
    they are given), and [current] builds the object only when the loop
    forwards or probes it.  The two constructors differ only in how a
    block is filled and how a slot becomes an object.

    Determinism: a block is exactly what the sequential loop would
    evaluate, each task writes a disjoint slice of the buffers, and
    every stateful step stays in the operator's domain in the same
    order — so results are {e bit-for-bit} the sequential run's.
    Classification may run ahead of the stopping test by at most one
    block, none of it charged: reads are metered at consumption.  [obs]
    counts classified blocks under [qaq.parallel.chunks]. *)

val source :
  ?obs:Obs.t ->
  ?block:int ->
  ?pool:Domain_pool.t ->
  instance:'o Operator.instance ->
  'o array ->
  'o Operator.source
(** A cursor over the array.  With a [pool] of more than one lane it
    classifies [block] objects (default 4096) at a time on the lanes,
    evaluating [instance] as the loop would ([classify] for every
    object, [laxity] only for YES/MAYBE, [success] only for MAYBE);
    [current] is the array element.  Otherwise it is
    {!Operator.source_of_array}.
    @raise Invalid_argument if [block < 1]. *)

val columnar :
  ?obs:Obs.t ->
  ?wave:int ->
  ?pool:Domain_pool.t ->
  ?prune:bool ->
  store:Column_store.t ->
  of_row:(Column_store.row -> 'o) ->
  pred:Predicate.compiled ->
  unit ->
  'o Operator.source
(** A cursor over the store in storage order.  A block is a {e wave} of
    [wave] chunks (default 16): the chunks are fetched on the caller's
    lane (a streamed store does file io), then each is classified by the
    {!Predicate.classify_column} kernel on the lanes — two floats read
    per row, no allocation.  Without a [pool] (or with one lane) the
    kernels run on the caller's lane.  [current] is [of_row] of the
    chunk row, so a NO or an ignored MAYBE is never built.  The kernel
    mirrors [Predicate.classify] / [success] / [Uncertain.laxity] on
    interval and exact beliefs, so the run is bit-for-bit the row
    path's.

    With [prune:true] (default false), chunks whose zone hull is a
    definite NO ({!Column_store.prunable}) are dropped before the scan:
    never fetched, never in [total], and counted under
    [qaq.parallel.pruned_pages].  They can never be in the answer, so
    leaving them out of [|M_ns|] keeps every guarantee honest with
    respect to the full input.
    @raise Invalid_argument if [wave < 1], or (during the scan) if a
    fetched chunk's length differs from the store's layout. *)
