(** Parallel pre-classification feeding the sequential QaQ decision loop.

    The per-object work of the scan — [classify], [laxity], [success] —
    is pure and embarrassingly parallel; everything that carries the
    paper's guarantees (the Theorem 3.1 guards, the counters, the cost
    meter, the policy's randomized choices) is sequential.  So the
    pool's lanes evaluate the instance over a block of input into flat
    verdict, laxity and success buffers, and {!Operator.run} reads them
    through its cursor ({!Operator.source}); the object is [data.(i)],
    handed over only to forward or probe.

    Determinism: the lanes evaluate exactly what the sequential loop
    would ([classify] for every object, [laxity] only for YES/MAYBE,
    [success] only for MAYBE), each lane writes a disjoint slice of the
    block, and every stateful step stays in the operator's domain in
    the same order — so results are {e bit-for-bit} the sequential
    run's.  Classification may run ahead of the stopping test by at most
    one block, none of it charged: reads are metered at consumption. *)

val source :
  ?obs:Obs.t ->
  ?block:int ->
  ?pool:Domain_pool.t ->
  instance:'o Operator.instance ->
  'o array ->
  'o Operator.source
(** A cursor over the array, for {!Operator.run}.  With a [pool] of more
    than one lane it classifies [block] objects (default 4096) at a time
    on the lanes: its [verdict], [laxity] and [success] read the block
    buffers (they ignore the instance they are given: [instance] here is
    the one evaluated), [current] is the array element, speculation is
    bounded by one block past the last consumed object, and [obs] counts
    classified blocks under [qaq.parallel.chunks].  Otherwise it is
    {!Operator.source_of_array}.  Either way the run is bit-for-bit the
    sequential one.
    @raise Invalid_argument if [block < 1]. *)
