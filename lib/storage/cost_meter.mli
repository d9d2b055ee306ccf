(** Mutable accounting of the operations performed by a query evaluation.

    The QaQ operator charges every read, probe and write to a meter; the
    experiment harness then reports the paper's total cost [W]
    (Eq. 11) and the normalised cost [W / |T|]. *)

type t

type counts = {
  reads : int;  (** R: objects read and classified *)
  probes : int;  (** Y_p + M_p: probe operations *)
  batches : int;  (** probe batches dispatched (see {!Probe_driver}) *)
  writes_imprecise : int;  (** Y_f + M_f: imprecise objects output *)
  writes_precise : int;  (** Y_p + M_py: precise objects output *)
}

val create : unit -> t

val charge_read : t -> unit
val charge_probe : t -> unit

val charge_write_imprecise : t -> unit
val charge_write_precise : t -> unit

val charge_probe_tier : t -> int -> unit
(** [charge_probe_tier t i] charges one probe attributed to cascade
    tier [i]: the aggregate {!counts}[.probes] grows by one {e and}
    tier [i]'s slot grows by one, so the base {!reconcile} invariant is
    preserved by construction.  Allocates only on tier [i]'s first
    charge. *)

val charge_batch_tier : t -> int -> unit
(** One probe batch dispatched at cascade tier [i]: the aggregate
    [batches] (charged [c_b] by {!total_cost}) and tier [i]'s slot each
    grow by one.  A scalar probe path charges one batch per probe, so
    with [c_b = 0] (the paper model) nothing changes. *)

val counts : t -> counts

val total_cost : Cost_model.t -> t -> float
(** The paper's [W = R·c_r + (Y_p+M_p)·c_p + (Y_f+M_f)·c_wi +
    (Y_p+M_py)·c_wp], plus the batching extension's [B_n·c_b] where
    [B_n] is the number of probe batches. *)

val cost_of_counts : Cost_model.t -> counts -> float

val tiered_cost : Cost_model.t -> tiers:Probe_tier.spec array -> t -> float
(** Like {!total_cost} but probes/batches charged through
    {!charge_probe_tier}/{!charge_batch_tier} are priced at their own
    tier's [(c_p, c_b)]; the untier'd remainder (e.g. planning pilot
    probes) stays at the base model's prices.  Computed as {!total_cost}
    plus each tier's [p_i·(c_p_i − c_p) + b_i·(c_b_i − c_b)], so a tier
    priced at the base model adds exactly [0.0]: a single-tier cascade
    built by [Cascade.of_driver] costs bit-for-bit {!total_cost}, under
    any cost model. *)

val reconcile : Metrics.snapshot -> counts -> (unit, string) result
(** Check that the independently maintained observability counters (the
    {!Obs.Keys} names: reads, probes, batches, writes) agree exactly
    with the meter's counts — the "all work is metered" invariant.  A
    name missing from the snapshot counts as 0.  [Error] carries every
    mismatching name with both values. *)

val reconcile_tiers :
  Metrics.snapshot -> names:string array -> t -> (unit, string) result
(** {!reconcile} plus, for each cascade tier name, a check that the
    [qaq.probe.tier.<name>.probes]/[.batches] counters equal the
    meter's per-tier slots. *)

val pp_counts : Format.formatter -> counts -> unit
