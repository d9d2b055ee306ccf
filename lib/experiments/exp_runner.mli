(** Runners for the paper's two experiment families.

    §5.1: solve the optimization problem for a setting
    ({!solve_setting}) — the theoretical optimum under the uniform
    density and exact selectivities.

    §5.2: actually run the QaQ operator over generated data
    ({!trial_run}), with the QaQ policy's parameters estimated from a 1%
    sample exactly as in the paper, and compare against the Stingy and
    Greedy baselines on the same datasets. *)

type policy_kind =
  | Qaq  (** optimizer parameters estimated from a sample *)
  | Stingy
  | Greedy
  | Fixed of Policy.params  (** run with externally chosen parameters *)

val policy_name : policy_kind -> string

val solve_setting :
  ?cost:Cost_model.t -> ?batch:int -> Exp_config.setting -> Planner.solution
(** The §5.1 computation: {!Planner.solve} at the setting's exact
    [f_y]/[f_m] under the uniform density.  [cost] (default
    {!Cost_model.paper}) and [batch] (default 1) price the objective
    through the one-tier oracle {!Probe_tier.oracle_only}, so the
    batched-probe pricing can be studied on the paper settings. *)

type outcome = {
  normalized_cost : float;  (** W / |T| under the paper cost model *)
  cost : float;
  guarantees : Quality.guarantees;
  actual_precision : float;  (** Eq. 3 against generator ground truth *)
  actual_recall : float;  (** Eq. 4 against generator ground truth *)
  answer_size : int;
  read_fraction : float;
  counts : Cost_meter.counts;
  params_used : Policy.params option;  (** [None] for [Custom] policies *)
  met_requirements : bool;
      (** whether the guarantees met the requirements; always true with
          the Theorem 3.1 guard on *)
}

val trial_run :
  rng:Rng.t ->
  ?sample_fraction:float ->
  ?density:[ `Uniform | `Histogram ] ->
  ?cost:Cost_model.t ->
  ?batch:int ->
  ?obs:Obs.t ->
  ?domains:int ->
  setting:Exp_config.setting ->
  data:Synthetic.obj array ->
  policy_kind ->
  outcome
(** One trial on pre-generated data.  [sample_fraction] (default 0.01)
    and [density] (default [`Uniform], the paper's choice) only affect
    [Qaq].  Sampling is pre-query work and is not charged to the meter,
    as in the paper.  [batch] (default 1, the paper's scalar path) sets
    the probe batch size: the operator probes through a driver of that
    size and the [Qaq] planner prices probes at the amortized
    [c_p + c_b/batch].  The Theorem 3.1 guard is on for every policy
    except [Greedy], which the paper's trials run raw (see
    {!Operator.run}).  [obs] instruments the
    operator and the probe driver (see {!Operator.run}).  [domains]
    (default: {!Domain_pool.resolve} over [QAQ_DOMAINS], else 1) fans
    the pure per-object work out over that many lanes of the process's
    {!Domain_pool}; the outcome is bit-for-bit identical for
    every value (see [Scan_pipeline]). *)

type aggregate = {
  repetitions : int;
  mean_cost : float;  (** mean normalised cost *)
  ci95 : float;
  mean_precision : float;
  mean_recall : float;
  worst_precision_violation : float;
      (** max over runs of (p_q − actual precision), floor 0 — should be 0:
          guarantees are sound *)
  worst_recall_violation : float;
}

val aggregate : Exp_config.setting -> outcome list -> aggregate

val trial_series :
  rng:Rng.t ->
  ?repetitions:int ->
  ?cost:Cost_model.t ->
  ?batch:int ->
  ?obs:Obs.t ->
  ?domains:int ->
  Exp_config.setting ->
  policy_kind list ->
  (policy_kind * aggregate) list
(** [repetitions] (default 5) independent datasets; all policies run on
    the same datasets for paired comparison.  [Qaq] plans from a 1%
    sample under the uniform density, the paper's choice.  [domains] is
    as in {!trial_run}.
    @raise Invalid_argument if [repetitions < 1]: an aggregate over no
    runs has no mean. *)

val parallel_configs : (unit -> 'a) list -> 'a list
(** Run independent experiment configurations — whole sweeps, not
    single objects — on separate domains, returning their results in
    input order.  Each thunk must be self-contained (own rng, no shared
    mutable state, no printing): thunks run concurrently on the lanes
    [QAQ_DOMAINS] asks for ({!Domain_pool.resolve}, {!Domain_pool.run}).
    With one lane the thunks run sequentially in order, so
    results never depend on the lane count; if thunks raise, the first
    raising thunk's exception is re-raised once all have run. *)
