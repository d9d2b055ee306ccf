(** Quality-aware band join over imprecise relations.

    The paper names joins as the next operator for the QaQ framework
    (§7); this module builds that extension on the same foundations.  A
    pair [(l, r)] of records joins when their true values are within
    [ε]: [|ω^l − ω^r| <= ε].  Before probing, each side is known only up
    to its belief's support, so pairs classify YES/NO/MAYBE via the
    exact distance interval of {!Pair_distance}; the pair's laxity is
    that interval's width (0 exactly when both sides are resolved).

    The join {e is} the selection operator: {!run} is {!Operator.run}
    over a cursor that steps the [|L| × |R|] pair space in block
    nested-loop order, so the counters, guarantees (Eqs. 8–10 over
    pairs) and Theorem 3.1 rules are the selection's own.  The cursor
    classifies each pair from its two supports and builds the pair only
    to forward or probe it.  The join-specific twist is probing:
    resolving a pair probes {e objects}, and a probed object benefits
    every later pair it appears in.  Object probes are therefore cached
    and charged at most once per object — this cache is what makes QaQ
    joins dramatically cheaper than per-pair probing, and the bench
    quantifies it. *)

type pair = { left : Interval_data.record; right : Interval_data.record }

val instance : epsilon:float -> pair Operator.instance
(** The static (cache-free) view of a pair: classification and laxity
    from the distance interval of the two supports, success under
    independent uniform beliefs.  Use this for pre-query sampling
    (selectivity estimation over sampled pairs). *)

val in_exact : epsilon:float -> pair -> bool
val exact_size :
  epsilon:float -> Interval_data.record array -> Interval_data.record array ->
  int

type report = {
  answer : pair Operator.emitted list;
      (** emitted pairs; [precise] means both sides were resolved *)
  guarantees : Quality.guarantees;
  requirements : Quality.requirements;
  counts : Cost_meter.counts;
      (** [reads] counts pair evaluations; [probes] counts {e object}
          probes (each distinct object charged once) *)
  pairs_total : int;  (** |L| · |R| *)
  object_probes : int;
      (** objects fetched (distinct objects when [share_probes] is on) *)
  probe_requests : int;  (** object lookups including cache hits *)
  answer_size : int;
  exhausted : bool;
}

val run :
  rng:Rng.t ->
  ?collect:bool ->
  ?share_probes:bool ->
  ?policy:Policy.t ->
  requirements:Quality.requirements ->
  epsilon:float ->
  left:Interval_data.record array ->
  right:Interval_data.record array ->
  unit ->
  report
(** Evaluate the band join: {!Operator.run} over the pair cursor, with
    [collect] as there.  [policy] defaults to
    {!Policy.stingy}; the Theorem 3.1 guards always apply, so the
    guarantees, over the pair space, satisfy the requirements.
    A [Probe] decision fully resolves both sides of the pair (so the
    emitted pair has laxity 0), consulting the probe cache first.
    [share_probes] (default [true]) enables the cache; with [false]
    every probe request re-fetches and re-charges — the per-pair probing
    baseline the cache ablation compares against (classification still
    sees earlier results, only the charging changes).
    @raise Invalid_argument if [epsilon] is negative or NaN.
    @raise Operator.Inconsistent_probe if a probed pair contradicts its
    verdict — a YES pair that no longer joins, or a MAYBE that stays
    unresolved — which only records whose truth lies outside their
    belief's support can cause. *)

val cost : Cost_model.t -> report -> float
(** [W] with [c_r] per pair evaluation, [c_p] per distinct object probe,
    and write costs per emitted pair. *)
