(** The paper's synthetic workload (§5.2).

    Objects are generated with label YES, MAYBE or NO with probabilities
    [f_y], [f_m], [1 − f_y − f_m].  Each MAYBE object gets a success
    probability [s(o) ~ U(0, 1)] and a pre-drawn probe outcome (YES with
    probability [s(o)]).  Every object gets a laxity [l(o) ~ U(0, L)].
    A probe returns the resolved, laxity-0 version of the object.

    The labels are the generator's ground truth, so the exact set of the
    query is known and the diagnostics of §2 can be computed — exactly
    what the trial runs of §5.2 need. *)

type config = {
  total : int;
  f_y : float;
  f_m : float;
  max_laxity : float;  (** L, default experiments use 100 *)
}

val config :
  ?total:int -> ?f_y:float -> ?f_m:float -> ?max_laxity:float -> unit -> config
(** Defaults are the paper's: [total = 10000], [f_y = f_m = 0.2],
    [max_laxity = 100].
    @raise Invalid_argument on negative sizes, fractions outside [0, 1]
    or summing above 1, or non-positive laxity. *)

type obj = private {
  id : int;
  label : Tvl.t;  (** verdict of λ on the imprecise object *)
  laxity : float;
  success : float;  (** s(o); 1 for YES, 0 for NO *)
  probe_yes : bool;  (** ground truth: does ω^o satisfy λ? *)
  resolved : bool;  (** true after a probe *)
}

val make :
  id:int ->
  label:Tvl.t ->
  laxity:float ->
  success:float ->
  probe_yes:bool ->
  resolved:bool ->
  obj
(** Build an object directly (deserialisation, hand-written tests).
    @raise Invalid_argument if the fields are incoherent: negative
    or non-finite laxity, success outside [0, 1], a YES whose probe
    outcome is not YES (or success not 1), or a NO that would probe YES. *)

val generate : Rng.t -> config -> obj array

val generate_skewed :
  Rng.t -> config -> laxity_exponent:float -> success_exponent:float ->
  obj array
(** Like {!generate} but with power-law-skewed marginals:
    [l(o) = L·u^laxity_exponent] and [s(o) = u^success_exponent] for
    [u ~ U(0, 1)].  Exponent 1 recovers the uniform workload; larger
    exponents concentrate mass near 0.  Used to ablate the optimizer's
    uniform-density assumption against the histogram density of §4.2.
    @raise Invalid_argument on non-positive exponents. *)

val instance : obj Operator.instance
(** Classification, laxity and success as the operator sees them: a
    resolved object classifies definitively with laxity 0. *)

val probe : obj -> obj
(** The probe operation: the resolved version of the object. *)

val shrink : power:float -> obj -> obj
(** A cheap-proxy narrowing of the object: laxity contracts to
    [(1 − power)·laxity] and a MAYBE's success probability moves
    toward its pre-drawn ground truth by the same factor, so the
    narrowed object is a sound imprecise view of the same precise
    object (the verdict of λ never weakens, the laxity never grows).
    [power = 0] is the identity; [power = 1] degenerates to {!probe}.
    Resolved objects pass through unchanged.  On this workload a
    partial shrink keeps a MAYBE imprecise — the win comes from
    laxity-based forwarding, not verdict flips — so a [Shrink] tier
    must sit above a [Resolve] tier that settles the residual.
    @raise Invalid_argument if [power] is outside [0, 1]. *)

val exact_size : obj array -> int
(** |E|: number of objects whose precise version satisfies λ. *)

val in_exact : obj -> bool
(** Whether this object's precise version satisfies λ. *)
