(** Deterministic, seeded fault injection.

    A {!spec} scripts the hostile conditions a run should survive —
    transient per-attempt failures and permanently unresolvable
    elements — as pure data plus a seed.  An injector ({!t},
    from {!injector_opt}) is the mutable per-site instance of a spec: it
    derives its own SplitMix64 stream from the seed and the site name, so
    fault decisions are reproducible per seed and completely independent of
    the engine's own rng streams (attaching an injector never perturbs
    the query's decisions, only the probe outcomes).

    Sites consult the injector at well-defined points: {!fresh_element}
    once per element entering a probe/fetch lifecycle (this is where
    permanence is drawn) and {!attempt} once per attempt on that
    element.  A spec with every rate at zero gets
    no injector ({!injector_opt} is [None]): callers skip injection
    entirely then, which keeps the zero-rate plan bit-for-bit identical to an
    unfaulted run.

    A site that serves many callers at once (the server's backends)
    uses the keyed draw {!permanent} instead of an injector: its
    decisions follow from the element's key, not from call order. *)

type spec = {
  seed : int;
  transient_rate : float;  (** P(one attempt fails, retry may succeed) *)
  permanent_rate : float;  (** P(an element never resolves) *)
}

val make :
  ?seed:int ->
  ?transient_rate:float ->
  ?permanent_rate:float ->
  unit ->
  spec
(** Both rates default to 0, and [seed] to 0.  The retry budget is the
    probing site's own ([Probe_source.create]'s [max_retries]), not part
    of the plan.
    @raise Invalid_argument on a rate outside [0, 1] or NaN. *)

val none : spec
(** [make ()] — the null plan. *)

(** {2 Injectors} *)

type t
(** Mutable per-site injection state. *)

val injector_opt : ?obs:Obs.t -> site:string -> spec -> t option
(** A fresh injector whose stream is a pure function of
    [(spec.seed, site)]: two injectors built with equal arguments make
    identical decisions in identical call order.  [None] for a null
    spec, one whose rates are all 0 (no failure mode can ever fire), so
    a site with no faults builds no injector.  [obs] registers the
    [qaq.fault.injected] counter (every injected attempt failure). *)

type element
(** Per-element fault state: whether this element is permanently
    unresolvable. *)

val fresh_element : t -> element
(** Call once when an element enters a probe/fetch lifecycle; draws
    permanence with [permanent_rate]. *)

val attempt : t -> element -> bool
(** [true] when this attempt must fail: the element is permanent, or a
    transient failure fires.  Counts into [qaq.fault.injected]. *)

(** {2 Keyed draws} *)

val permanent : spec -> site:string -> int -> bool
(** [permanent spec ~site key] is whether the element with key [key]
    never resolves at [site]: [true] with probability
    [spec.permanent_rate], a pure function of [(spec.seed, site, key)].
    It keeps no state, so a decision does not depend on which keys were
    asked before it, and any domain may ask.  Partial application
    ([permanent spec ~site]) folds the site in once. *)
