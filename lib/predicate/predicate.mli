(** One-dimensional selection predicates with three-way evaluation.

    A predicate [λ] maps objects to {YES, NO, MAYBE} (paper §1).  This
    module builds predicates over real-valued attributes, evaluates them:

    - exactly on precise values ({!eval});
    - three-way on imprecise values ({!classify}), by comparing the
      object's support against the predicate's satisfying set;
    - probabilistically ({!success}), yielding the paper's success
      probability [s(o)] (§4.1) under the object's belief model.

    Strict and non-strict comparisons are distinguished by {!eval} but
    coincide for {!classify} and {!success} (see {!Real_set}). *)

type t =
  | Ge of float  (** value >= x *)
  | Gt of float  (** value > x *)
  | Le of float  (** value <= x *)
  | Lt of float  (** value < x *)
  | Between of float * float  (** a <= value <= b *)
  | Not of t
  | And of t * t
  | Or of t * t

val ge : float -> t
val le : float -> t

val between : float -> float -> t
(** @raise Invalid_argument if the bounds are reversed or not finite. *)

val not_ : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t

val eval : t -> float -> bool
(** Exact evaluation on a precise value, honouring strictness. *)

val satisfying_set : t -> Real_set.t
(** The set of values satisfying the predicate (all comparisons read as
    non-strict). *)

val classify : t -> Uncertain.t -> Tvl.t
(** [Yes] if the object's support is contained in the satisfying set,
    [No] if disjoint from it, [Maybe] otherwise. *)

val classify_interval : t -> Interval.t -> Tvl.t
(** Same, directly on an interval support. *)

val success : t -> Uncertain.t -> float
(** Probability that a probe returns YES, under the object's belief
    model.  Returns 1 (resp. 0) when {!classify} is [Yes] (resp. [No]). *)

(** {2 Compiled form}

    {!classify} and {!success} recompute the satisfying set on every
    call.  A {!compiled} predicate computes it once and keeps it as a
    flat array of component bounds; the [_bounds] entry points then take
    an interval support as two floats, and {!classify_column} runs the
    same tests over whole bound columns — the columnar classification
    kernel — without allocating.  Results are bit-for-bit those of
    {!classify} / {!success} on the corresponding [Exact]/[Interval]
    belief. *)

type compiled

val compile : t -> compiled

val source : compiled -> t
(** The predicate the kernel was compiled from. *)

val classify_bounds : compiled -> lo:float -> hi:float -> Tvl.t
(** {!classify} of an object whose support is [\[lo, hi\]] ([lo <= hi];
    a reversed pair is not a support and gets an unspecified verdict). *)

val success_bounds : compiled -> lo:float -> hi:float -> float
(** {!success} of a flat-schema belief with support [\[lo, hi\]]: a
    point support reads as an exact value (membership), a proper
    interval as a uniform interval belief (covered measure over
    width). *)

type column = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val classify_column :
  compiled ->
  lo:column ->
  hi:column ->
  len:int ->
  off:int ->
  verdicts:Bytes.t ->
  laxities:float array ->
  successes:float array ->
  unit
(** For each row [i < len] of the support columns [lo]/[hi], write slot
    [off + i]: the verdict ({!classify_bounds}, [Tvl.to_char]-packed),
    the laxity (the support width [hi - lo], the laxity of an exact or
    interval belief) and the success ({!success_bounds}: 1 for YES, 0
    for NO).  Supports must satisfy [lo <= hi].
    @raise Invalid_argument if a column is shorter than [len] or a
    buffer shorter than [off + len]. *)

val to_string : t -> string
