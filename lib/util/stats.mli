(** Descriptive statistics over float samples.

    Used by the experiment harness to aggregate repeated trial runs and by
    the sampling substrate to summarise estimated densities. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (denominator [n - 1]); 0 for fewer than two
    samples. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val min : float array -> float
(** Minimum; [nan] for an empty array. *)

val max : float array -> float
(** Maximum; [nan] for an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] is the linear-interpolation quantile for
    [q] in [\[0, 1\]]; [nan] for an empty array.
    @raise Invalid_argument if [q] is outside [\[0, 1\]]. *)

val median : float array -> float
(** [quantile xs 0.5]. *)

val confidence95 : float array -> float
(** Half-width of a normal-approximation 95% confidence interval on the
    mean ([1.96 * stddev / sqrt n]); 0 for fewer than two samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;  (** half-width of the 95% confidence interval *)
}

val summarize : float array -> summary

(** Streaming mean/variance (Welford's algorithm), for aggregating values
    that are expensive to retain. *)
module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
end
