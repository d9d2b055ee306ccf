(* Tests for the one-call execution facade. *)

let checkb = Alcotest.(check bool)

let requirements = Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:50.0

let dataset seed = Synthetic.generate (Rng.create seed) (Synthetic.config ~total:5000 ())

let test_execute_default () =
  let data = dataset 1 in
  let result =
    Engine.run ~rng:(Rng.create 2) ~max_laxity:100.0
      ~instance:Synthetic.instance ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  checkb "meets" true (Quality.meets result.report.guarantees requirements);
  (match result.plan with
  | Some plan ->
      checkb "sampled an estimate" true (plan.estimate <> None);
      checkb "solver feasible" true plan.evaluation.feasible;
      (* Estimated fractions should be near the generator's 0.2. *)
      (match plan.estimate with
      | Some e ->
          checkb "f_y plausible" true (Float.abs (e.f_y -. 0.2) < 0.15);
          checkb "f_m plausible" true (Float.abs (e.f_m -. 0.2) < 0.15)
      | None -> ())
  | None -> Alcotest.fail "expected a plan");
  checkb "cost in the plausible band" true
    (result.normalized_cost > 1.0 && result.normalized_cost < 25.0)

let test_execute_fixed () =
  let data = dataset 3 in
  let result =
    Engine.run ~rng:(Rng.create 4)
      ~planning:(Engine.Fixed Policy.stingy_params)
      ~instance:Synthetic.instance ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  checkb "no plan for fixed" true (result.plan = None);
  checkb "still meets" true (Quality.meets result.report.guarantees requirements)

let test_execute_adaptive () =
  let data = dataset 5 in
  let result =
    Engine.run ~rng:(Rng.create 6) ~adaptive:true ~max_laxity:100.0
      ~instance:Synthetic.instance ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  checkb "adaptive meets" true (Quality.meets result.report.guarantees requirements)

let test_execute_histogram_density () =
  let data =
    Synthetic.generate_skewed (Rng.create 7)
      (Synthetic.config ~total:5000 ())
      ~laxity_exponent:4.0 ~success_exponent:1.0
  in
  let result =
    Engine.run ~rng:(Rng.create 8)
      ~planning:
        (Engine.Sampled { fraction = 0.05; density = `Histogram })
      ~max_laxity:100.0 ~instance:Synthetic.instance ~probe:(Probe_driver.scalar Synthetic.probe)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  checkb "histogram-planned run meets" true
    (Quality.meets result.report.guarantees requirements)

let test_execute_empty_and_tiny () =
  let empty =
    Engine.run ~rng:(Rng.create 9) ~instance:Synthetic.instance
      ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance [||])
  in
  checkb "empty ok" true (Quality.meets empty.report.guarantees requirements);
  Alcotest.(check (float 0.0)) "empty cost" 0.0 empty.normalized_cost;
  (* A dataset too small for the sample to catch anything exercises the
     default prior. *)
  let tiny = Synthetic.generate (Rng.create 10) (Synthetic.config ~total:5 ()) in
  let result =
    Engine.run ~rng:(Rng.create 11) ~instance:Synthetic.instance
      ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance tiny)
  in
  checkb "tiny ok" true (Quality.meets result.report.guarantees requirements)

(* Regression: the planner's Bernoulli sample is charged to the run's
   meter, and sampling does not perturb the operator's rng stream — so a
   planned run and a Fixed run given the planned parameters make
   identical decisions and differ in cost by exactly the sample's
   reads. *)
let test_sample_reads_charged () =
  let data = dataset 21 in
  let planned =
    Engine.run ~rng:(Rng.create 22) ~max_laxity:100.0
      ~instance:Synthetic.instance ~probe:(Probe_driver.scalar Synthetic.probe)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let plan =
    match planned.plan with Some p -> p | None -> Alcotest.fail "no plan"
  in
  Alcotest.(check bool) "sample was non-empty" true (plan.sample_size > 0);
  let fixed =
    Engine.run ~rng:(Rng.create 22)
      ~planning:(Engine.Fixed plan.params) ~max_laxity:100.0
      ~instance:Synthetic.instance ~probe:(Probe_driver.scalar Synthetic.probe)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let pc = planned.counts and fc = fixed.counts in
  Alcotest.(check int) "reads differ by the sample" (fc.reads + plan.sample_size)
    pc.reads;
  Alcotest.(check int) "same probes" fc.probes pc.probes;
  Alcotest.(check int) "same batches" fc.batches pc.batches;
  Alcotest.(check int) "same imprecise writes" fc.writes_imprecise
    pc.writes_imprecise;
  Alcotest.(check int) "same precise writes" fc.writes_precise pc.writes_precise;
  let model = Cost_model.paper in
  let expected_delta =
    float_of_int plan.sample_size *. model.Cost_model.c_r
  in
  Alcotest.(check (float 1e-9)) "cost delta is exactly the sample's reads"
    expected_delta
    (Cost_meter.cost_of_counts model pc -. Cost_meter.cost_of_counts model fc);
  (* report.counts stays scan-only: the sample lands in result.counts. *)
  Alcotest.(check int) "report counts exclude the sample" fc.reads
    planned.report.counts.reads

(* Regression: the input's maximum laxity is scanned at most once even
   when both the planner and the adaptive estimator need it.  The
   operator never asks a NO object for its laxity, so on an all-NO input
   every laxity call comes from the shared cap scan (plus the sampled
   objects the estimator inspects) — under the old duplicated scan this
   counted 2N. *)
let test_laxity_scanned_once () =
  let n = 1000 in
  let laxity_calls = ref 0 in
  let instance =
    {
      Operator.classify = (fun (_ : int) -> Tvl.No);
      laxity =
        (fun _ ->
          incr laxity_calls;
          1.0);
      success = (fun _ -> 0.0);
    }
  in
  let data = Array.init n Fun.id in
  let result =
    Engine.run ~rng:(Rng.create 23) ~adaptive:true ~instance
      ~probe:(Probe_driver.scalar Fun.id)
      ~requirements:(Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:50.0)
      (Scan_pipeline.rows ~instance data)
  in
  ignore result;
  Alcotest.(check bool)
    (Printf.sprintf "laxity scanned once (%d calls for %d objects)"
       !laxity_calls n)
    true
    (!laxity_calls < 2 * n)

(* Regression: an invalid [max_laxity] is rejected up front with one
   message in every planning mode.  It used to pass unchecked under
   [Fixed] planning and otherwise fail in whichever planning module saw
   it first. *)
let test_invalid_max_laxity () =
  let data = dataset 12 in
  let probe () = Probe_driver.scalar Synthetic.probe in
  let modes =
    [
      ("sampled", fun max_laxity ->
          Engine.run ~rng:(Rng.create 1) ~max_laxity
            ~instance:Synthetic.instance ~probe:(probe ()) ~requirements
            (Scan_pipeline.rows ~instance:Synthetic.instance data));
      ("sampled fraction 0", fun max_laxity ->
          Engine.run ~rng:(Rng.create 1)
            ~planning:(Engine.Sampled { fraction = 0.0; density = `Histogram })
            ~max_laxity ~instance:Synthetic.instance ~probe:(probe ())
            ~requirements
            (Scan_pipeline.rows ~instance:Synthetic.instance data));
      ("fixed", fun max_laxity ->
          Engine.run ~rng:(Rng.create 1)
            ~planning:(Engine.Fixed Policy.stingy_params) ~max_laxity
            ~instance:Synthetic.instance ~probe:(probe ()) ~requirements
            (Scan_pipeline.rows ~instance:Synthetic.instance data));
      ("fixed + adaptive", fun max_laxity ->
          Engine.run ~rng:(Rng.create 1)
            ~planning:(Engine.Fixed Policy.stingy_params) ~adaptive:true
            ~max_laxity ~instance:Synthetic.instance ~probe:(probe ())
            ~requirements
            (Scan_pipeline.rows ~instance:Synthetic.instance data));
      ("budgeted", fun max_laxity ->
          Engine.run ~rng:(Rng.create 1) ~budget:5000.0 ~max_laxity
            ~instance:Synthetic.instance ~probe:(probe ()) ~requirements
            (Scan_pipeline.rows ~instance:Synthetic.instance data));
    ]
  in
  List.iter
    (fun max_laxity ->
      List.iter
        (fun (mode, run) ->
          Alcotest.check_raises
            (Printf.sprintf "%s, max_laxity %g" mode max_laxity)
            (Invalid_argument
               "Engine.run: max_laxity must be positive and finite")
            (fun () -> ignore (run max_laxity)))
        modes;
      Alcotest.check_raises
        (Printf.sprintf "Adaptive.create, max_laxity %g" max_laxity)
        (Invalid_argument
           "Adaptive.create: max_laxity must be positive and finite")
        (fun () ->
          ignore
            (Adaptive.create ~rng:(Rng.create 1) ~total:100 ~max_laxity
               ~requirements ())))
    [ 0.0; -1.0; nan; infinity ]

let suite =
  [
    ("execute with default planning", `Quick, test_execute_default);
    ("execute with fixed params", `Quick, test_execute_fixed);
    ("execute adaptive", `Quick, test_execute_adaptive);
    ("execute with histogram density", `Quick, test_execute_histogram_density);
    ("empty and tiny inputs", `Quick, test_execute_empty_and_tiny);
    ("sample reads are charged", `Quick, test_sample_reads_charged);
    ("laxity cap scanned once", `Quick, test_laxity_scanned_once);
    ("invalid max_laxity in every planning mode", `Quick, test_invalid_max_laxity);
  ]
