(** A tiered probe cascade: one {!Probe_driver} per {!Probe_tier.spec},
    cheap [Shrink] proxies first, the [Resolve] oracle last.

    The cascade is the operator's only probe capability: a plain driver
    is the one-tier cascade {!of_driver}, so every probe takes the same
    path through [Operator.run ~cascade].  The cascade is passive
    plumbing over the per-tier drivers; escalation, re-classification
    and the Theorem 3.1 counter updates live in the operator.  A
    [Shrunk] outcome at tier [i] narrows the object's imprecision
    interval — a narrower interval is still a valid imprecise model, so
    re-classifying the shrunk object may turn MAYBE into a definite
    verdict and save the oracle probe entirely; residuals escalate to
    tier [i+1].  A tier that fails permanently fails over to the next
    tier ({!note_failover}); only an oracle failure degrades the
    answer. *)

type 'o t

val create :
  ?start:int -> specs:Probe_tier.spec array -> 'o Probe_driver.t array -> 'o t
(** [create ~specs drivers] pairs tier [i]'s spec with [drivers.(i)].
    [start] is the tier submissions enter at; it defaults to
    {!Probe_tier.select}'s cheapest escalation strategy.
    @raise Invalid_argument if the specs are invalid
    ({!Probe_tier.validate}), the arrays differ in length, or a
    driver's batch size disagrees with its spec. *)

val of_driver : ?cost:Cost_model.t -> 'o Probe_driver.t -> 'o t
(** [of_driver d] is the oracle-only cascade: one [Resolve] tier named
    ["oracle"] around [d], priced at [cost]'s
    [(c_p, c_b)] (default {!Cost_model.paper}) and [d]'s batch size.
    The price only feeds start-tier selection and tiered metering
    ({!Cost_meter.tiered_cost}); [Engine] passes the run's own cost
    model, so a wrapped driver costs exactly what the cost model says. *)

val specs : 'o t -> Probe_tier.spec array
val drivers : 'o t -> 'o Probe_driver.t array

val oracle : 'o t -> 'o Probe_driver.t
(** The final [Resolve] tier's driver. *)

val start : 'o t -> int

val pending : 'o t -> int
(** Submissions queued but unresolved, summed over every tier. *)

val note_failover : 'o t -> int -> unit
(** Record a permanent failure at tier [i] that escalated to [i+1]. *)

type stats = {
  st_name : string;
  st_probes : int;  (** [Resolved] outcomes at this tier *)
  st_shrinks : int;  (** [Shrunk] outcomes at this tier *)
  st_failures : int;
  st_batches : int;
  st_failovers : int;
}

val stats : 'o t -> stats array
