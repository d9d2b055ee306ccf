(** Descriptive statistics over float samples, used by the experiment
    harness to aggregate repeated trial runs. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val confidence95 : float array -> float
(** Half-width of a normal-approximation 95% confidence interval on the
    mean ([1.96 * s / sqrt n], with [s] the unbiased sample standard
    deviation); 0 for fewer than two samples. *)
