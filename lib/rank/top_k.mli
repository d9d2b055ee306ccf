(** Quality-aware top-k selection over imprecise scalars.

    The rank-query setting of Khanna & Tan [10], which the paper cites
    as the closest prior probe-minimisation work, integrated with the
    QaQ quality vocabulary.  The exact set [E] is the [k] records with
    the largest true values (ties broken towards the smaller id, a
    deterministic total order).  Classification is {e relative}: a
    record is certainly in the top-k when fewer than [k] others could
    possibly beat it, certainly out when at least [k] others certainly
    beat it, and MAYBE otherwise — so probing one record can flip the
    verdicts of others.

    Unlike selection, rank needs the whole input before anything can be
    certified, so every record is read once ([n · c_r]); the
    performance game is purely about probes, and recall is the only
    gradual guarantee: certified members give [r^G = |certified| / k]
    with precision 1, and forwarding uncertified candidates can never
    raise the guaranteed recall (|E| = k is known), so the answer is
    exactly the certified set plus, optionally, nothing.  Evaluation
    probes — widest support intersecting the k-th-rank boundary band
    first — until [r^G >= r_q], probing certified members that exceed
    the laxity bound as needed.  Precision is always 1, so any
    [p_q <= 1] is met. *)

type verdict_counts = { certain : int; impossible : int; open_ : int }

val classify : k:int -> Interval_data.record array -> Tvl.t array
(** Per-record verdict of "is in the top-k", from the current beliefs.
    @raise Invalid_argument if [k <= 0] or [k > n]. *)

val verdict_counts : Tvl.t array -> verdict_counts

val exact_top_k : k:int -> Interval_data.record array -> Interval_data.record list
(** Ground truth (tests/experiments), under the same tie order. *)

type report = {
  answer : Interval_data.record list;
      (** the emitted members — [ceil(r_q * k)] of the certified ones —
          in descending order of belief upper bound (exact rank order
          once resolved) *)
  guarantees : Quality.guarantees;  (** precision is always 1 *)
  requirements : Quality.requirements;
  counts : Cost_meter.counts;  (** reads = n, probes as performed *)
  k : int;
  certified : int;  (** total certified members, >= the emitted count *)
  exhausted : bool;  (** every record resolved (exact answer reached) *)
}

val run :
  requirements:Quality.requirements ->
  k:int ->
  Interval_data.record array ->
  report
(** Evaluate the top-k query to the requested recall.  Deterministic (no
    randomness in the probe schedule).  The returned guarantees satisfy
    the requirements; if ties in true values make full certification
    impossible the loop still terminates — with everything resolved the
    tie order is total, so certification always completes.
    @raise Invalid_argument as in {!classify}. *)
