type policy_kind = Qaq | Stingy | Greedy | Fixed of Policy.params

let policy_name = function
  | Qaq -> "QaQ"
  | Stingy -> "Stingy"
  | Greedy -> "Greedy"
  | Fixed _ -> "Fixed"

let solve_setting ?(cost = Cost_model.paper) ?(batch = 1)
    (s : Exp_config.setting) =
  Planner.solve ~total:s.total ~f_y:s.f_y ~f_m:s.f_m ~max_laxity:s.max_laxity
    ~requirements:(Exp_config.requirements s) ~cost
    ~tiers:(Probe_tier.oracle_only ~cost ~batch ())
    ()

type outcome = {
  normalized_cost : float;
  cost : float;
  guarantees : Quality.guarantees;
  actual_precision : float;
  actual_recall : float;
  answer_size : int;
  read_fraction : float;
  counts : Cost_meter.counts;
  params_used : Policy.params option;
  met_requirements : bool;
}

(* The paper's QaQ: estimate f_y, f_m from a pre-query sample, keep the
   density assumption (uniform by default), solve for the region
   parameters.  The histogram density is the §4.2 refinement.  An empty
   sample plans under the setting's own fractions. *)
let qaq_params ~rng ~lanes ~sample_fraction ~density ~cost ~batch
    (s : Exp_config.setting) data =
  let pilot =
    Planner.pilot ~rng ~fraction:sample_fraction ~instance:Synthetic.instance
      ~lanes ~max_laxity:s.max_laxity ~prior:(s.f_y, s.f_m) ~density
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  (Planner.solve ~total:s.total ~f_y:pilot.f_y ~f_m:pilot.f_m
     ~density:pilot.density ~max_laxity:s.max_laxity
     ~requirements:(Exp_config.requirements s) ~cost
     ~tiers:(Probe_tier.oracle_only ~cost ~batch ())
     ())
    .params

let trial_with ~lanes ~rng ~sample_fraction ~density ~cost ~batch ?obs
    ~(setting : Exp_config.setting) ~data kind =
  let params =
    match kind with
    | Qaq ->
        qaq_params ~rng ~lanes ~sample_fraction ~density ~cost ~batch setting
          data
    | Stingy -> Policy.stingy_params
    | Greedy -> Policy.greedy_params
    | Fixed p -> p
  in
  (* The paper's Greedy trials let Greedy run its policy raw: its cost is
     reported as constant across precision bounds it cannot honour
     (§5.2, varying precision), which is only possible without the
     Theorem 3.1 precision guard.  QaQ and Stingy are evaluated with the
     guards, as the paper's framework prescribes. *)
  let enforce = match kind with Greedy -> false | Qaq | Stingy | Fixed _ -> true in
  let requirements = Exp_config.requirements setting in
  let report =
    Operator.run ~rng ?obs ~enforce ~instance:Synthetic.instance
      ~cascade:
        (Cascade.of_driver
           (Probe_driver.of_scalar ?obs ~batch_size:batch Synthetic.probe))
      ~policy:(Policy.qaq params) ~requirements
      ((Scan_pipeline.rows ~instance:Synthetic.instance data).cursor ?obs
         ~lanes ())
  in
  let answer_in_exact =
    List.fold_left
      (fun acc (e : Synthetic.obj Operator.emitted) ->
        if Synthetic.in_exact e.obj then acc + 1 else acc)
      0 report.answer
  in
  let exact = Synthetic.exact_size data in
  let total = Array.length data in
  let w = Operator.cost cost report in
  {
    normalized_cost = (if total = 0 then 0.0 else w /. float_of_int total);
    cost = w;
    guarantees = report.guarantees;
    actual_precision =
      Quality.Diagnostics.precision ~answer_size:report.answer_size
        ~answer_in_exact;
    actual_recall =
      Quality.Diagnostics.recall ~exact_size:exact ~answer_in_exact;
    answer_size = report.answer_size;
    read_fraction =
      (if total = 0 then 1.0
       else float_of_int report.counts.reads /. float_of_int total);
    counts = report.counts;
    params_used = Some params;
    met_requirements = Quality.meets report.guarantees requirements;
  }

let trial_run ~rng ?(sample_fraction = 0.01) ?(density = `Uniform)
    ?(cost = Cost_model.paper) ?(batch = 1) ?obs ?domains ~setting ~data kind =
  trial_with ~lanes:(Domain_pool.resolve ?domains ()) ~rng ~sample_fraction
    ~density ~cost ~batch ?obs ~setting ~data kind

type aggregate = {
  repetitions : int;
  mean_cost : float;
  ci95 : float;
  mean_precision : float;
  mean_recall : float;
  worst_precision_violation : float;
  worst_recall_violation : float;
}

let aggregate (s : Exp_config.setting) outcomes =
  let arr f = Array.of_list (List.map f outcomes) in
  let costs = arr (fun o -> o.normalized_cost) in
  let precisions = arr (fun o -> o.actual_precision) in
  let recalls = arr (fun o -> o.actual_recall) in
  let worst f bound =
    List.fold_left
      (fun acc o -> Float.max acc (bound -. f o))
      0.0 outcomes
  in
  {
    repetitions = List.length outcomes;
    mean_cost = Stats.mean costs;
    ci95 = Stats.confidence95 costs;
    mean_precision = Stats.mean precisions;
    mean_recall = Stats.mean recalls;
    worst_precision_violation = worst (fun o -> o.actual_precision) s.p_q;
    worst_recall_violation = worst (fun o -> o.actual_recall) s.r_q;
  }

let trial_series ~rng ?(repetitions = 5) ?(cost = Cost_model.paper) ?(batch = 1)
    ?obs ?domains (setting : Exp_config.setting) kinds =
  if repetitions < 1 then invalid_arg "Exp_runner.trial_series: repetitions < 1";
  let datasets =
    List.init repetitions (fun _ ->
        Synthetic.generate rng (Exp_config.workload setting))
  in
  let lanes = Domain_pool.resolve ?domains () in
  List.map
    (fun kind ->
      let outcomes =
        List.map
          (fun data ->
            trial_with ~lanes ~rng ~sample_fraction:0.01 ~density:`Uniform ~cost
              ~batch ?obs ~setting ~data kind)
          datasets
      in
      (kind, aggregate setting outcomes))
    kinds

let parallel_configs configs =
  Array.to_list
    (Domain_pool.run ~lanes:(Domain_pool.resolve ()) (Array.of_list configs))
