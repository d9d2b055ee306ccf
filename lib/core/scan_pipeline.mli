(** Scan sources: what a query reads, for both the row and the columnar
    layout.

    A source ({!t}) is everything the engine asks of its input — the
    object count, the pilot sample with the laxity maximum, and the
    pre-classifying cursor {!Operator.run} scans — with one backend per
    representation: {!rows} over an array, {!store} over a
    {!Column_store}.  Both draw the pilot through {!sample_indices}, so
    the same rng gives the same sample, and the store backend builds
    only the sampled rows: a stored file is planned and scanned without
    materialising the relation.

    The per-object work of the scan — λ(o), l(o), s(o) — is pure and
    embarrassingly parallel; everything that carries the paper's
    guarantees (the Theorem 3.1 guards, the counters, the cost meter,
    the policy's randomized choices) is sequential.  So both cursors
    classify a block of input into flat verdict ([Tvl.to_char]-packed),
    laxity and success buffers, one disjoint slice per task on the
    cursor's lanes ({!Domain_pool.run}), and {!Operator.run} reads them
    through one shared cursor ({!Operator.source}): its [verdict],
    [laxity] and [success] read the buffers (they ignore the instance
    they are given), and [current] builds the object only when the loop forwards or probes
    it.  The two backends differ only in how a block is filled and how a
    slot becomes an object.

    Determinism: a block is exactly what the sequential loop would
    evaluate, each task writes a disjoint slice of the buffers, and
    every stateful step stays in the operator's domain in the same
    order — so results are {e bit-for-bit} the sequential run's.
    Classification may run ahead of the stopping test by at most one
    block, none of it charged: reads are metered at consumption.  [obs]
    counts classified blocks under [qaq.parallel.chunks]. *)

type 'o t = {
  length : int;  (** objects in the input, pruned ones included *)
  sample : ?max_laxity:float -> int array -> 'o array * float;
      (** [sample indices]: the objects at the ascending [indices] (from
          {!sample_indices}) and the laxity cap to plan with — the given
          [max_laxity], else the largest l(o) over the whole input (1
          when none is positive), both from one pass in storage order. *)
  cursor :
    ?obs:Obs.t ->
    ?on_task:(lane:int -> start:float -> finish:float -> unit) ->
    ?lanes:int ->
    unit ->
    'o Operator.source;
      (** A fresh cursor over the input for one scan, classifying on
          [lanes] lanes (default 1); [on_task] is {!Domain_pool.run}'s
          hook.  A source holds no scan state, so one source serves any
          number of runs, also concurrently. *)
}

val sample_indices : Rng.t -> fraction:float -> int -> int array
(** [sample_indices rng ~fraction n]: each of the indices [0 .. n - 1]
    independently with probability [fraction], ascending — the paper's
    "random sample of size 1 %".  One {!Rng.bernoulli} draw per index,
    from [n - 1] down to [0].
    @raise Invalid_argument if the fraction is outside [0, 1]. *)

val rows : ?block:int -> instance:'o Operator.instance -> 'o array -> 'o t
(** The array as a source.  The laxity maximum is a fold of
    [instance.laxity] over the array, done on the first [sample] without
    [max_laxity] and kept for every later one: the array's objects must
    not change laxity while the source is in use.  The cursor on more
    than one lane classifies [block] objects (default 4096) at a time on
    the lanes, evaluating [instance] as the loop would
    ([classify] for every object, [laxity] only for YES/MAYBE, [success]
    only for MAYBE); [current] is the array element.  Otherwise it is
    {!Operator.source_of_array}.
    @raise Invalid_argument if [block < 1]. *)

val store :
  ?wave:int ->
  ?prune:bool ->
  of_row:(Column_store.row -> 'o) ->
  pred:Predicate.t ->
  Column_store.t ->
  'o t
(** The store as a source of [of_row] objects in storage order, for the
    interval instance of [pred] ([Interval_data.instance pred]): the
    laxity of a row is its support width [hi -. lo], bit for bit
    [Uncertain.laxity] of its belief.  [sample] fetches every chunk
    without [max_laxity], else only the chunks that hold sampled rows,
    and calls [of_row] on the sampled rows alone.

    The cursor takes a {e wave} of [wave] chunks (default 16) at a time:
    the chunks are fetched on the caller's lane (a streamed store does
    file io), then each is classified by the
    {!Predicate.classify_column} kernel on the lanes — two floats read
    per row, no allocation.  With one lane the kernels run on the
    caller's lane.  [current] is [of_row] of the
    chunk row, so a NO or an ignored MAYBE is never built.  The kernel
    mirrors [Predicate.classify] / [success] / [Uncertain.laxity] on
    interval and exact beliefs, so a run is bit-for-bit the row path's.

    With [prune:true] (default false), chunks whose zone hull is a
    definite NO ({!Column_store.prunable}) are dropped before the scan:
    the cursor never fetches them, they are not in its [total], and they
    are counted under [qaq.parallel.pruned_pages].  They can never be in
    the answer, so leaving them out of [|M_ns|] keeps every guarantee
    honest with respect to the full input.
    @raise Invalid_argument if [wave < 1], or (when fetched) if a chunk's
    length differs from the store's layout. *)
