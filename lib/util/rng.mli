(** Deterministic, splittable pseudo-random number generator.

    Experiments in this repository must be reproducible: every random
    quantity is drawn from an explicitly seeded generator, never from a
    global one.  The implementation is SplitMix64 (Steele, Lea & Flood,
    OOPSLA 2014), which is fast, has a 64-bit state, and supports cheap
    splitting into statistically independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds
    yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Use one
    split generator per logical component of an experiment so that adding
    draws to one component does not perturb the others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)].  [bound] must be finite
    and positive. *)

val uniform : t -> float
(** [uniform t] is uniform in [\[0, 1)]. *)

val uniform_in : t -> float -> float -> float
(** [uniform_in t lo hi] is uniform in [\[lo, hi)].
    @raise Invalid_argument if [lo > hi]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0, 1]). *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via the Marsaglia polar method. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
