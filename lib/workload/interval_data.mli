(** Interval-approximated scalar datasets with hidden ground truth.

    This is the paper's running example made concrete: each record has a
    precise value (a sensor reading, a stock price, …) that the query site
    does not know, and an imprecise belief — typically an interval
    containing the value.  A probe reveals the value.  Queries are
    ordinary scalar {!Predicate}s; classification, laxity and success
    probability come from the belief model.

    Because the generator keeps the truth, the exact set of any query is
    computable, which tests and experiments use for the §2 diagnostics. *)

type record = {
  id : int;
  belief : Uncertain.t;  (** what the query processor stores *)
  truth : float;  (** hidden; revealed by a probe *)
}

val instance : Predicate.t -> record Operator.instance
(** The operator view of a record under a query predicate. *)

val probe : record -> record
(** The probe operation: belief collapses to [Exact truth]. *)

val shrink : power:float -> record -> record
(** A proxy-tier probe: the belief interval contracts towards the truth,
    keeping fraction [1 -. power] of the distance to each bound.  The
    result is a subset of the original interval and still contains the
    truth (a sound imprecise model); [power = 1.] collapses to the
    exact truth, [power = 0.] is the identity.  [Exact] beliefs pass
    through unchanged.
    @raise Invalid_argument on a power outside [0, 1] or a Gaussian
    belief. *)

val exact_size : Predicate.t -> record array -> int
(** How many records' true values satisfy the predicate (Eq. 1). *)

val in_exact : Predicate.t -> record -> bool

(** {2 Columnar form}

    The flat schema ([id], support [lo]/[hi], [truth]) of the columnar
    engine.  Only exact and interval beliefs fit — the same restriction
    as the CSV record codec — and a degenerate support decodes back to
    an [Exact] belief, mirroring that codec's choice. *)

val of_row : Column_store.row -> record

val to_store : ?chunk_size:int -> record array -> Column_store.t
(** Resident columnar store of the records in array order
    ({!Column_store.create}). *)

val of_store : Column_store.t -> record array
(** Materialize every record in storage order, fetching each chunk
    once — the row view that planning and equivalence oracles run
    from. *)

(** {2 Generators} *)

val uniform_intervals :
  Rng.t ->
  n:int ->
  value_range:Interval.t ->
  max_width:float ->
  record array
(** Truths uniform in [value_range]; each belief is an interval of width
    [~ U(0, max_width)] positioned uniformly around the truth, so the
    truth is uniformly distributed within its interval — matching the
    success-probability model of §4.1.
    @raise Invalid_argument if [n < 0] or [max_width <= 0]. *)

val gaussian_beliefs :
  Rng.t ->
  n:int ->
  mean:float ->
  stddev:float ->
  noise:float ->
  record array
(** Truths from [N(mean, stddev²)]; each belief is a Gaussian centred on
    a noisy observation of the truth with standard deviation [noise] —
    the distribution-based imprecision model of §2.2.  Beliefs whose
    4-sigma support excludes the truth are redrawn so probes stay
    consistent. *)
