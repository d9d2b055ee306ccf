(** Fixed-length real-valued time series.

    The storage-barrier scenario of §1.1: precise series (ECGs, sensor
    histories) are large and live in an archive; the query site keeps
    compressed versions and probes the archive for the precise series
    when needed. *)

type t

val of_array : float array -> t
(** @raise Invalid_argument on an empty array or non-finite values. *)

val length : t -> int
val get : t -> int -> float

val euclidean_distance : t -> t -> float
(** @raise Invalid_argument on length mismatch. *)

val map : (float -> float) -> t -> t

(** {2 Generators} *)

val random_walk :
  Rng.t -> length:int -> start:float -> step_stddev:float -> t
(** Gaussian random walk — the stock synthetic series. *)

val with_motif :
  Rng.t -> base:t -> motif:t -> at:int -> amplitude:float -> t
(** [base] with [amplitude · motif] added starting at index [at]: plants a
    recognisable pattern (e.g. an arrhythmia motif in an ECG-like
    series).  @raise Invalid_argument if the motif does not fit. *)
