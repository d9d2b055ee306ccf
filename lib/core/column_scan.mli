(** Vectorized pre-classification over a {!Column_store}.

    This is {!Scan_pipeline} with the per-object instance closures
    replaced by kernels over column chunks: each chunk's supports are
    classified by a {!Predicate.compiled} in a tight loop that reads two
    floats per row and writes verdict/laxity/success into flat,
    preallocated wave buffers — no per-object allocation and no object
    materialization during classification.  The sequential decision loop
    reads each verdict, laxity and success straight from those buffers
    through its cursor ({!Operator.source}); an object comes into
    existence ([of_row]) only when the loop forwards or probes it, so a
    NO or an ignored MAYBE is never built at all.

    Equivalence with the row path is by construction, in two layers:
    {ul
    {- the kernel ({!Predicate.classify_column}) evaluates the
       compiled predicate's tests and the support width — exact
       mirrors of [Predicate.classify] / [success] /
       [Uncertain.laxity] on interval and exact beliefs;}
    {- the decision loop is {!Operator.run} over {!source} — the same
       loop, through the same cursor, that the row path runs.}}
    So verdicts, guarantees, metered costs and the rng stream are
    bit-for-bit the row path's — the property the golden equivalence
    suite checks for every pool width.

    Chunks are classified in {e waves} of [wave] chunks: fetches happen
    on the caller's lane (streamed stores do file io), kernels are
    dispatched across the {!Domain_pool} (each wave position owns a
    disjoint buffer slice, so results are scheduling-independent), and
    speculation past the last consumed object is bounded by one wave —
    none of it charged to the meter, since reads are metered at
    consumption.

    With [prune:true], chunks whose zone hull is a definite NO are
    dropped before the scan: they are never fetched (the streamed store
    never reads their bytes), never enter the source's [total], and are
    counted under [qaq.parallel.pruned_pages].  This is sound because a
    pruned chunk holds only definite NOs ({!Column_store.prunable}): they
    can never be in the answer, so leaving them out of [|M_ns|] keeps
    every guarantee honest with respect to the full input. *)

val kernel :
  Predicate.compiled ->
  Column_store.chunk ->
  off:int ->
  verdicts:Bytes.t ->
  laxities:float array ->
  successes:float array ->
  unit
(** Classify one chunk into buffer slices starting at [off]: verdict
    [Tvl.to_char]-packed, laxity and success as floats
    ({!Predicate.classify_column}).  Pure in the columns, writes only
    [off .. off + len - 1]. *)

val source :
  ?obs:Obs.t ->
  ?wave:int ->
  ?pool:Domain_pool.t ->
  ?prune:bool ->
  store:Column_store.t ->
  of_row:(Column_store.row -> 'o) ->
  pred:Predicate.compiled ->
  unit ->
  'o Operator.source
(** A cursor over the store in storage order.  Its [verdict], [laxity]
    and [success] read the wave buffers (they ignore the instance they
    are given: [pred] is what the kernel evaluates); [current] is
    [of_row] of the chunk row.  [wave] (default
    16 chunks) bounds speculation; without a [pool] (or with one lane)
    kernels run on the caller's lane — still vectorized, just not
    parallel.  [obs] counts dispatched waves under [qaq.parallel.chunks]
    and, with [prune:true] (default false), pruned chunks under
    [qaq.parallel.pruned_pages]. *)
