(* Golden determinism tests for the multicore scan pipeline: the engine
   must produce bit-for-bit identical results whatever the domain count.
   Every parallel stage evaluates only pure per-object functions and the
   decision loop stays sequential, so answers, guarantees, counts, costs
   and planner output must not move by a single bit between domains = 1
   and any other lane count. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let requirements = Quality.requirements ~precision:0.85 ~recall:0.6 ~laxity:60.0

let dataset seed =
  Synthetic.generate (Rng.create seed) (Synthetic.config ~total:6000 ())

let answer_ids (report : Synthetic.obj Operator.report) =
  List.map
    (fun (e : Synthetic.obj Operator.emitted) -> (e.obj.id, e.precise))
    report.answer

type fingerprint = {
  answer : (int * bool) list;
  guarantees : Quality.guarantees;
  counts : Cost_meter.counts;
  run_counts : Cost_meter.counts;
  yes_seen : int;
  maybe_ignored : int;
  answer_size : int;
  exhausted : bool;
  normalized_cost : float;
  plan_params : Policy.params option;
  plan_sample : int option;
}

let fingerprint (result : Synthetic.obj Engine.result) =
  {
    answer = answer_ids result.report;
    guarantees = result.report.guarantees;
    counts = result.counts;
    run_counts = result.report.counts;
    yes_seen = result.report.yes_seen;
    maybe_ignored = result.report.maybe_ignored;
    answer_size = result.report.answer_size;
    exhausted = result.report.exhausted;
    normalized_cost = result.normalized_cost;
    plan_params = Option.map (fun (p : Engine.plan) -> p.params) result.plan;
    plan_sample =
      Option.map (fun (p : Engine.plan) -> p.sample_size) result.plan;
  }

let run ~seed ~planning ~batch ~domains data =
  fingerprint
    (Engine.run ~rng:(Rng.create seed) ~planning ~max_laxity:100.0
       ~domains ~instance:Synthetic.instance
       ~probe:(Probe_driver.of_scalar ~batch_size:batch Synthetic.probe)
       ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data))

(* Structural equality is the point: every field, floats included, must
   be bitwise identical (no NaNs arise in these runs). *)
let check_same label a b = checkb label true (a = b)

let test_golden_across_domains () =
  let data = dataset 11 in
  let plannings =
    [
      ("fixed", Engine.Fixed Policy.stingy_params);
      ("sampled", Engine.default_planning);
    ]
  in
  List.iter
    (fun (pname, planning) ->
      List.iter
        (fun batch ->
          let baseline = run ~seed:21 ~planning ~batch ~domains:1 data in
          checkb
            (Printf.sprintf "%s B=%d baseline answers" pname batch)
            true
            (baseline.answer_size > 0);
          List.iter
            (fun domains ->
              let got = run ~seed:21 ~planning ~batch ~domains data in
              check_same
                (Printf.sprintf "%s B=%d domains=%d bit-for-bit" pname batch
                   domains)
                baseline got)
            [ 2; 4 ])
        [ 1; 4 ])
    plannings

let test_golden_adaptive () =
  let data = dataset 13 in
  let planning = Engine.default_planning in
  let base =
    Engine.run ~rng:(Rng.create 5) ~planning ~adaptive:true
      ~max_laxity:100.0 ~domains:1 ~instance:Synthetic.instance
      ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let par =
    Engine.run ~rng:(Rng.create 5) ~planning ~adaptive:true
      ~max_laxity:100.0 ~domains:2 ~instance:Synthetic.instance
      ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  check_same "adaptive run identical" (fingerprint base) (fingerprint par)

(* The laxity cap defaults to a data scan; that scan is also pooled and
   must not move the cap (and hence the plan) by a bit.  Two inputs: a
   synthetic run at 4 domains, and a classification-heavy scan of 120k
   Gaussian beliefs, whose every classify/laxity/success call is an
   erf-bound computation, at 2, 4 and 8 domains. *)
let test_golden_observed_cap () =
  let data = dataset 17 in
  let exec domains =
    fingerprint
      (Engine.run ~rng:(Rng.create 7) ~domains
         ~instance:Synthetic.instance
         ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
         (Scan_pipeline.rows ~instance:Synthetic.instance data))
  in
  check_same "observed-cap run identical" (exec 1) (exec 4);
  let records =
    Interval_data.gaussian_beliefs (Rng.create 4096) ~n:120_000 ~mean:55.0
      ~stddev:15.0 ~noise:2.0
  in
  let pred = Predicate.ge 60.0 in
  let gaussian domains =
    let r =
      Engine.run ~rng:(Rng.create 4097) ~domains
        ~instance:(Interval_data.instance pred)
        ~probe:(Probe_driver.scalar Interval_data.probe)
        ~requirements:
          (Quality.requirements ~precision:0.9 ~recall:0.9 ~laxity:6.0)
        (Scan_pipeline.rows ~instance:(Interval_data.instance pred) records)
    in
    ( r.Engine.report.answer_size,
      r.Engine.report.yes_seen,
      r.Engine.counts,
      r.Engine.report.guarantees,
      r.Engine.normalized_cost )
  in
  let ((answer_size, _, _, _, _) as baseline) = gaussian 1 in
  checkb "gaussian baseline answers" true (answer_size > 0);
  List.iter
    (fun domains ->
      check_same
        (Printf.sprintf "gaussian scan domains=%d bit-for-bit" domains)
        baseline (gaussian domains))
    [ 2; 4; 8 ]

let test_streaming_order () =
  let data = dataset 19 in
  let emitted domains =
    let r =
      Engine.run ~rng:(Rng.create 3)
        ~planning:(Engine.Fixed Policy.stingy_params) ~max_laxity:100.0
        ~domains ~instance:Synthetic.instance
        ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
        (Scan_pipeline.rows ~instance:Synthetic.instance data)
    in
    List.map
      (fun (e : Synthetic.obj Operator.emitted) -> (e.obj.id, e.precise))
      r.Engine.report.answer
  in
  let base = emitted 1 in
  checkb "baseline stream non-empty" true (base <> []);
  check_same "emission order identical" base (emitted 2)

let test_parallel_metrics () =
  let data = dataset 23 in
  let snapshot domains =
    let obs = Obs.create () in
    let result =
      Engine.run ~rng:(Rng.create 9) ~max_laxity:100.0 ~domains ~obs
        ~instance:Synthetic.instance
        ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
        (Scan_pipeline.rows ~instance:Synthetic.instance data)
    in
    (result, Obs.snapshot obs)
  in
  let seq, seq_snap = snapshot 1 in
  let par, par_snap = snapshot 2 in
  check_same "instrumented runs identical" (fingerprint seq) (fingerprint par);
  (* The qaq.* cost counters are part of the deterministic surface … *)
  List.iter
    (fun key ->
      checki
        (Printf.sprintf "%s identical across domains" key)
        (Metrics.count_of seq_snap key)
        (Metrics.count_of par_snap key))
    Obs.Keys.
      [ reads; probes; batches; writes_imprecise; writes_precise; sample_reads ];
  (* … while the parallel-only metrics exist exactly on the pooled run. *)
  checki "no chunks metered sequentially" 0
    (Metrics.count_of seq_snap Obs.Keys.parallel_chunks);
  checkb "chunks metered in parallel" true
    (Metrics.count_of par_snap Obs.Keys.parallel_chunks > 0);
  checkb "domain gauge recorded" true
    (match Metrics.get par_snap Obs.Keys.parallel_domains with
    | Some (Metrics.Level l) -> l = 2.0
    | _ -> false);
  checkb "busy gauges recorded" true
    (match Metrics.get par_snap (Obs.Keys.domain_busy 0) with
    | Some (Metrics.Level l) -> l >= 0.0
    | _ -> false)

(* A lane beyond the cores never runs, so a run asked for more reports
   only the lanes it has: the gauge reads the core count, and no lane
   past it gets a busy gauge. *)
let test_lanes_capped_at_cores () =
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then begin
    let obs = Obs.create () in
    ignore
      (Engine.run ~rng:(Rng.create 9) ~max_laxity:100.0 ~domains:(cores + 2)
         ~obs ~instance:Synthetic.instance
         ~probe:(Probe_driver.scalar Synthetic.probe) ~requirements
         (Scan_pipeline.rows ~instance:Synthetic.instance (dataset 23)));
    let snap = Obs.snapshot obs in
    checkb "domain gauge reads the cores" true
      (Metrics.get snap Obs.Keys.parallel_domains
      = Some (Metrics.Level (float_of_int cores)));
    List.iter
      (fun i ->
        checkb
          (Printf.sprintf "no busy gauge for lane %d" i)
          true
          (Metrics.get snap (Obs.Keys.domain_busy i) = None))
      [ cores; cores + 1 ]
  end

let test_trial_run_parallel () =
  let rng = Rng.create 31 in
  let setting = Exp_config.default in
  let data = Synthetic.generate rng (Exp_config.workload setting) in
  let outcome domains =
    Exp_runner.trial_run ~rng:(Rng.create 41) ~batch:4 ~domains ~setting ~data
      Exp_runner.Qaq
  in
  check_same "trial outcome identical" (outcome 1) (outcome 3)

let test_parallel_configs () =
  let configs = List.init 9 (fun i () -> (i, i * i)) in
  check_same "configs in order"
    (List.init 9 (fun i -> (i, i * i)))
    (Exp_runner.parallel_configs configs)

let suite =
  [
    ("golden across domains and batches", `Quick, test_golden_across_domains);
    ("golden adaptive run", `Quick, test_golden_adaptive);
    ("golden observed laxity cap", `Quick, test_golden_observed_cap);
    ("streaming emission order", `Quick, test_streaming_order);
    ("parallel metrics", `Quick, test_parallel_metrics);
    ("lane count capped at the cores", `Quick, test_lanes_capped_at_cores);
    ("trial_run with domains", `Quick, test_trial_run_parallel);
    ("parallel_configs ordering", `Quick, test_parallel_configs);
  ]
