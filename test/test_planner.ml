(* Tests for the one planning recipe: the pilot half and the solve half,
   and that the engine and the paper's trials plan through exactly
   them. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0))

let requirements = Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:50.0

let dataset seed =
  Synthetic.generate (Rng.create seed) (Synthetic.config ~total:5000 ())

let test_empty_pilot () =
  let p =
    Planner.pilot ~rng:(Rng.create 1) ~fraction:0.0
      ~instance:Synthetic.instance ~max_laxity:100.0 ~prior:(0.3, 0.1)
      ~density:`Histogram
      (Scan_pipeline.rows ~instance:Synthetic.instance (dataset 2))
  in
  checki "nothing sampled" 0 p.sample_size;
  checkb "no estimate" true (p.estimate = None);
  checkf "prior f_y" 0.3 p.f_y;
  checkf "prior f_m" 0.1 p.f_m;
  checkf "uniform density over [0, L]" 0.5 (Density.yes_above p.density 50.0)

let test_solve_halves () =
  let solve ?budget () =
    Planner.solve ~total:10000 ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0
      ~requirements ?budget ()
  in
  let primal = solve () in
  checkb "primal has no dual" true (primal.dual = None);
  checkb "primal evaluation prices its params" true
    ((Lazy.force primal.evaluation).params = primal.params);
  let budgeted = solve ~budget:(0.5 *. (Lazy.force primal.evaluation).cost) () in
  (match budgeted.dual with
  | Some d -> checkb "params are the dual's" true (d.d_params = budgeted.params)
  | None -> Alcotest.fail "a budget must yield the dual");
  checkb "evaluation is the primal re-pricing" true
    (Lazy.force budgeted.evaluation
    = Solver.evaluate budgeted.problem budgeted.params);
  checkb "an ample budget keeps the primal plan" true
    ((solve ~budget:infinity ()).params = primal.params)

(* The engine's plan stage is the two halves over the sampling stream it
   splits off first, priced at the cascade's tiers. *)
let test_engine_plans_through_halves () =
  let data = dataset 3 in
  let cost = Cost_model.paper in
  let result =
    Engine.run ~rng:(Rng.create 4) ~max_laxity:100.0
      ~instance:Synthetic.instance ~probe:(Probe_driver.scalar Synthetic.probe)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let plan =
    match result.plan with Some p -> p | None -> Alcotest.fail "no plan"
  in
  let pilot =
    Planner.pilot ~rng:(Rng.split (Rng.create 4)) ~fraction:0.01
      ~instance:Synthetic.instance ~max_laxity:100.0
      ~prior:Planner.default_prior ~density:`Uniform
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let solution =
    Planner.solve ~total:(Array.length data) ~f_y:pilot.f_y ~f_m:pilot.f_m
      ~density:pilot.density ~max_laxity:100.0 ~requirements ~cost
      ~tiers:
        (Cascade.specs
           (Cascade.of_driver ~cost (Probe_driver.scalar Synthetic.probe)))
      ()
  in
  checki "sample size" pilot.sample_size plan.sample_size;
  checkb "same params" true (plan.params = solution.params);
  checkb "same evaluation" true
    (plan.evaluation = Lazy.force solution.evaluation)

(* The paper's trials sample on the trial's own rng and fall back to the
   setting's exact fractions. *)
let test_trial_plans_through_halves () =
  let setting = { Exp_config.default with total = 2000 } in
  let data = Synthetic.generate (Rng.create 5) (Exp_config.workload setting) in
  let outcome =
    Exp_runner.trial_run ~rng:(Rng.create 6) ~domains:1 ~setting ~data
      Exp_runner.Qaq
  in
  let pilot =
    Planner.pilot ~rng:(Rng.create 6) ~fraction:0.01
      ~instance:Synthetic.instance ~max_laxity:setting.max_laxity
      ~prior:(setting.f_y, setting.f_m) ~density:`Uniform
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let solution =
    Planner.solve ~total:setting.total ~f_y:pilot.f_y ~f_m:pilot.f_m
      ~density:pilot.density ~max_laxity:setting.max_laxity
      ~requirements:(Exp_config.requirements setting) ()
  in
  checkb "same params" true (outcome.params_used = Some solution.params)

let suite =
  [
    ("empty pilot plans under the prior", `Quick, test_empty_pilot);
    ("solve half: primal, dual, re-pricing", `Quick, test_solve_halves);
    ("engine plans through the halves", `Quick, test_engine_plans_through_halves);
    ("trial plans through the halves", `Quick, test_trial_plans_through_halves);
  ]
