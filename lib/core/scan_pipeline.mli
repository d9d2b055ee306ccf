(** Parallel pre-classification feeding the sequential QaQ decision loop.

    The per-object work of the scan — [classify], [laxity], [success] —
    is pure and embarrassingly parallel; everything that carries the
    paper's guarantees (the Theorem 3.1 guards, the counters, the cost
    meter, the policy's randomized choices) is inherently sequential.
    This module splits the operator accordingly: a pipeline stage
    evaluates the instance over blocks of input on a {!Domain_pool},
    producing {!item} records, and {!Operator.run} consumes those
    records through a projection instance — so the decision loop, the
    rng stream, the metering and the guarantees are {e bit-for-bit} the
    sequential operator's.

    Determinism argument: the stage evaluates exactly the expressions
    the sequential loop would have evaluated, on the same objects, with
    the same pure functions ([classify] for every object; [laxity] only
    for YES/MAYBE, [success] only for MAYBE — NO objects never reach the
    policy, and a YES's success is the constant 1).  Blocks are merged
    in index order ({!Domain_pool.parallel_map}), so the operator sees
    the same object sequence; every stateful step happens in the
    operator's own domain in the same order as before.  The only
    observable difference is speculation: classification may run ahead
    of the stopping test by at most one block, none of which is charged
    to the meter — reads are metered at consumption, exactly as in the
    sequential scan. *)

(** A pre-classified object: the instance evaluated once, ahead of the
    decision loop. *)
type 'o item = {
  original : 'o;
  verdict : Tvl.t;
  laxity : float;  (** 0 for NO items (the loop never asks) *)
  success : float;  (** 1 for YES, 0 for NO (as the loop assumes) *)
}

val original : 'o item -> 'o

val classify_one : 'o Operator.instance -> 'o -> 'o item
(** Evaluate the instance on one object, with the sequential loop's
    evaluation pattern (see the determinism argument above). *)

val item_instance : 'o item Operator.instance
(** Field projections — the instance the decision loop runs against. *)

val source :
  ?obs:Obs.t ->
  ?block:int ->
  pool:Domain_pool.t ->
  instance:'o Operator.instance ->
  'o array ->
  'o item Operator.source
(** A source that classifies [block] objects (default 4096) at a time on
    the pool and hands them to the consumer one by one.  Speculation is
    bounded by one block past the last consumed object.  [obs] counts
    dispatched blocks under [qaq.parallel.chunks]. *)

val run_items :
  rng:Rng.t ->
  ?meter:Cost_meter.t ->
  ?obs:Obs.t ->
  ?emit:('o Operator.emitted -> unit) ->
  ?collect:bool ->
  ?enforce:bool ->
  ?should_stop:(pending:int -> bool) ->
  instance:'o Operator.instance ->
  cascade:'o Cascade.t ->
  policy:Policy.t ->
  requirements:Quality.requirements ->
  'o item Operator.source ->
  'o Operator.report
(** {!Operator.run} over a source of pre-classified items — this
    module's {!source} or the columnar {!Column_scan.source}.  The loop
    runs against {!item_instance}; [instance] is {e not} used to
    classify the items, only to re-classify probed objects on their way
    back into the loop.  Probes go through the {!Cascade.premap} view
    of [cascade] (a {!Probe_driver.premap} of every tier's driver), so
    batching, statistics and instruments behave exactly as under direct
    use.  [emit] and the report (answers included) are expressed over
    ['o], not {!item}. *)

val run :
  rng:Rng.t ->
  ?pool:Domain_pool.t ->
  ?block:int ->
  ?meter:Cost_meter.t ->
  ?obs:Obs.t ->
  ?emit:('o Operator.emitted -> unit) ->
  ?collect:bool ->
  ?enforce:bool ->
  ?should_stop:(pending:int -> bool) ->
  instance:'o Operator.instance ->
  cascade:'o Cascade.t ->
  policy:Policy.t ->
  requirements:Quality.requirements ->
  'o array ->
  'o Operator.report
(** {!Operator.run} over an array: {!run_items} over {!source} when
    [pool] has more than one lane, the plain sequential operator
    otherwise (or when [pool] is omitted).  Results are bit-for-bit the
    sequential run's. *)
