(* Graceful degradation under permanent probe failure: partial-batch
   settlement, honest post-degradation accounting against a
   ground-truth oracle, meter/metrics reconciliation under faults,
   zero-rate bit-for-bit identity, and deterministic replay. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let requirements =
  Quality.requirements ~precision:0.8 ~recall:0.5 ~laxity:50.0

(* Deterministic projection of a metric snapshot: counter values and
   histogram observation counts — everything a replay must reproduce
   exactly — dropping wall-clock levels (span seconds, gauges) and,
   for cross-domain comparison, the qaq.parallel.* bookkeeping that
   legitimately differs between a 1-domain and a 2-domain run. *)
let projection ?(cross_domain = false) snap =
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  List.filter_map
    (fun (name, v) ->
      if cross_domain && starts_with "qaq.parallel." name then None
      else
        match v with
        | Metrics.Count c -> Some (name, c)
        | Metrics.Dist d -> Some (name, d.Metrics.d_count)
        | Metrics.Level _ -> None)
    snap

let answer_ids result =
  List.map
    (fun (e : Synthetic.obj Operator.emitted) ->
      (e.Operator.obj.Synthetic.id, e.Operator.precise))
    result.Engine.report.Operator.answer

(* --- satellite: partial-batch settlement ----------------------------- *)

(* Regression for the partial-batch result leak: a failure mid-batch
   used to abort the whole flush, dropping siblings that had already
   resolved.  The outcome API settles every element: failed elements
   surface as [Failed], resolved siblings are kept and counted. *)
let test_sibling_survival () =
  let data =
    Synthetic.generate (Rng.create 41)
      (Synthetic.config ~total:32 ~f_y:0.0 ~f_m:1.0 ())
  in
  let source =
    Probe_source.create ~max_retries:0
      ~faults:(Fault_plan.make ~seed:42 ~transient_rate:0.5 ())
      Synthetic.probe
  in
  let outcomes = Probe_source.probe_batch_outcomes source data in
  checki "one outcome per element" (Array.length data) (Array.length outcomes);
  let resolved = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i -> function
      | Probe_driver.Resolved o ->
          incr resolved;
          checki "order preserved" data.(i).Synthetic.id o.Synthetic.id;
          checkb "probe delivered the precise version" true o.Synthetic.resolved
      | Probe_driver.Failed { attempts } ->
          incr failed;
          checki "budget of one attempt" 1 attempts
      | Probe_driver.Shrunk _ -> Alcotest.fail "oracle source never shrinks")
    outcomes;
  checkb "some elements failed" true (!failed > 0);
  checkb "their siblings still resolved" true (!resolved > 0);
  let s = Probe_source.stats source in
  checki "stats count the survivors" !resolved s.probes;
  checki "every element attempted" (Array.length data) s.attempts

(* --- acceptance: 20% permanent failure ------------------------------- *)

let faulted_engine_run ?(domains = 1) ?obs ~total ~fault_seed
    ~transient_rate ~permanent_rate ~engine_seed () =
  let data =
    Synthetic.generate (Rng.create 51) (Synthetic.config ~total ())
  in
  let faults =
    Fault_plan.make ~seed:fault_seed ~transient_rate ~permanent_rate ()
  in
  let source = Probe_source.create ?obs ~max_retries:2 ~faults Synthetic.probe in
  let result =
    Engine.run ~rng:(Rng.create engine_seed) ~max_laxity:100.0 ~domains
      ?obs ~instance:Synthetic.instance
      ~probe:(Probe_source.driver ?obs ~batch_size:16 source)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  (result, data)

(* The oracle-audited profile of a [faulted_engine_run] on a registry
   of its own. *)
let profiled_faulted_run ~total ~fault_seed ~transient_rate ~permanent_rate
    ~engine_seed () =
  let obs = Obs.create () in
  let earlier = Obs.snapshot obs in
  let ((result, data) as run) =
    faulted_engine_run ~obs ~total ~fault_seed ~transient_rate ~permanent_rate
      ~engine_seed ()
  in
  ( run,
    Profile.of_run ~oracle:Synthetic.in_exact ~earlier obs
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
      result )

(* The oracle recount an honest degradation summary must agree with. *)
let recount (result, data) =
  let in_exact =
    List.fold_left
      (fun acc (e : _ Operator.emitted) ->
        if Synthetic.in_exact e.Operator.obj then acc + 1 else acc)
      0 result.Engine.report.Operator.answer
  in
  let exact = Synthetic.exact_size data in
  let n = result.Engine.report.Operator.answer_size in
  let p = if n = 0 then 1.0 else float_of_int in_exact /. float_of_int n in
  let r = if exact = 0 then 1.0 else float_of_int in_exact /. float_of_int exact in
  (in_exact, exact, p, r)

let test_engine_survives_20pct_permanent () =
  let ((result, _) as run), profile =
    profiled_faulted_run ~total:2000 ~fault_seed:7 ~transient_rate:0.0
      ~permanent_rate:0.2 ~engine_seed:52 ()
  in
  let d = result.Engine.degradation in
  checkb "run completed with failures" true (d.Engine.failed_probes > 0);
  checkb "flagged degraded" true (Engine.degraded result);
  checkb "fallbacks cover every failure" true
    (d.Engine.failed_probes
    = d.Engine.degraded_forwards + d.Engine.degraded_ignores);
  checkf "wasted cost is the failed attempts, priced"
    (float_of_int d.Engine.failed_attempts *. Cost_model.paper.Cost_model.c_p)
    d.Engine.wasted_cost;
  checkb "before-snapshot captured" true (d.Engine.guarantees_before <> None);
  checki "audit flags the degradation" d.Engine.failed_probes
    profile.Profile.audit.Profile.degraded_probes;
  checkb "meter reconciles under faults" true
    (profile.Profile.reconcile_error = None);
  let in_exact, exact, p, r = recount run in
  match profile.Profile.audit.Profile.achieved with
  | None -> Alcotest.fail "expected an oracle audit"
  | Some a ->
      checki "overlap recount" in_exact a.Profile.answer_in_exact;
      checki "exact-size recount" exact a.Profile.exact_size;
      checkf "achieved precision honest" p a.Profile.achieved_precision;
      checkf "achieved recall honest" r a.Profile.achieved_recall;
      checkb "guaranteed precision is a sound lower bound" true
        (d.Engine.guarantees_after.Quality.precision
        <= a.Profile.achieved_precision +. 1e-9);
      checkb "guaranteed recall is a sound lower bound" true
        (d.Engine.guarantees_after.Quality.recall
        <= a.Profile.achieved_recall +. 1e-9)

(* Regression: [wasted_cost] used to price failed attempts at the bare
   [c_p], silently dropping the amortized batch setup share whenever
   [c_b > 0] — the report then under-stated the backend work lost to
   failures relative to how the solver and meter price probes. *)
let test_wasted_cost_amortizes_batch_setup () =
  let cost = { Cost_model.paper with Cost_model.c_b = 64.0 } in
  let data =
    Synthetic.generate (Rng.create 51) (Synthetic.config ~total:1000 ())
  in
  let faults =
    Fault_plan.make ~seed:7 ~permanent_rate:0.2 ()
  in
  let source = Probe_source.create ~max_retries:2 ~faults Synthetic.probe in
  let result =
    Engine.run ~rng:(Rng.create 52) ~max_laxity:100.0 ~cost
      ~instance:Synthetic.instance
      ~probe:(Probe_source.driver ~batch_size:16 source)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let d = result.Engine.degradation in
  checkb "failures happened" true (d.Engine.failed_attempts > 0);
  checkf "wasted cost priced at the amortized c_p + c_b/B"
    (float_of_int d.Engine.failed_attempts
    *. Cost_model.amortized_probe cost ~batch:16)
    d.Engine.wasted_cost;
  checkb "the setup share is actually in there" true
    (d.Engine.wasted_cost
    > float_of_int d.Engine.failed_attempts *. cost.Cost_model.c_p +. 1e-9)

(* --- fault sweep on the standard workload ----------------------------- *)

(* The standard workload at B = 16 through a fault-injected source
   (fault seed 1337), swept over permanent-failure rates 0, 1, 5 and
   20% with half as many transient failures.  Every run completes and
   holds six invariants: the meter reconciles with the qaq.* counters;
   the degraded flag agrees with the failure count; the audit flags
   exactly the failed probes; fallbacks cover every failure; the
   guarantees never overstate the oracle-achieved precision and recall;
   and the zero-rate plan is bit-for-bit the unfaulted run. *)
let test_fault_sweep_invariants () =
  let data = Standard_workload.data () in
  let scan = Scan_pipeline.rows ~instance:Synthetic.instance data in
  let run ?faults () =
    let obs = Obs.create () in
    let source =
      match faults with
      | None -> Probe_source.create ~obs Synthetic.probe
      | Some f ->
          Probe_source.create ~obs ~max_retries:2 ~faults:f Synthetic.probe
    in
    let earlier = Obs.snapshot obs in
    let result =
      Engine.run ~rng:(Rng.create Standard_workload.engine_seed)
        ~max_laxity:100.0 ~obs ~instance:Synthetic.instance
        ~probe:(Probe_source.driver ~obs ~batch_size:16 source)
        ~requirements:Standard_workload.requirements scan
    in
    (result, Profile.of_run ~oracle:Synthetic.in_exact ~earlier obs scan result)
  in
  let fingerprint result =
    ( answer_ids result,
      result.Engine.counts,
      result.Engine.report.Operator.guarantees,
      result.Engine.normalized_cost )
  in
  let baseline, _ = run () in
  List.iter
    (fun rate ->
      let faults =
        Fault_plan.make ~seed:1337 ~permanent_rate:rate
          ~transient_rate:(rate /. 2.0) ()
      in
      let result, profile = run ~faults () in
      let tag what = Printf.sprintf "%s (rate %g)" what rate in
      let d = result.Engine.degradation in
      checkb (tag "meter reconciles") true
        (profile.Profile.reconcile_error = None);
      checkb (tag "degraded flag agrees with failed probes") true
        (Engine.degraded result = (d.Engine.failed_probes > 0));
      checki (tag "audit flags every failed probe") d.Engine.failed_probes
        profile.Profile.audit.Profile.degraded_probes;
      checki (tag "fallbacks cover every failure") d.Engine.failed_probes
        (d.Engine.degraded_forwards + d.Engine.degraded_ignores);
      (match profile.Profile.audit.Profile.achieved with
      | None -> Alcotest.fail (tag "oracle audit missing")
      | Some a ->
          checkb (tag "guaranteed precision within achieved") true
            (d.Engine.guarantees_after.Quality.precision
            <= a.Profile.achieved_precision +. 1e-9);
          checkb (tag "guaranteed recall within achieved") true
            (d.Engine.guarantees_after.Quality.recall
            <= a.Profile.achieved_recall +. 1e-9));
      if rate = 0.0 then
        checkb (tag "zero-rate plan is the unfaulted run") true
          (fingerprint result = fingerprint baseline)
      else
        checkb (tag "the sweep injects failures") true
          (d.Engine.failed_attempts > 0))
    [ 0.0; 0.01; 0.05; 0.20 ]

(* --- qcheck invariants ----------------------------------------------- *)

(* (a) Whatever the failure mix, the reported achieved precision and
   recall are exactly the oracle recount, and the post-degradation
   guarantees never overstate them. *)
let prop_degraded_audit_honest =
  QCheck2.Test.make ~name:"degraded audit matches the oracle recount" ~count:8
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 25))
    (fun (fault_seed, pct) ->
      let ((result, _) as run), profile =
        profiled_faulted_run ~total:600 ~fault_seed
          ~transient_rate:(float_of_int pct /. 200.0)
          ~permanent_rate:(float_of_int pct /. 100.0)
          ~engine_seed:(fault_seed + 1) ()
      in
      let in_exact, exact, p, r = recount run in
      match profile.Profile.audit.Profile.achieved with
      | None -> false
      | Some a ->
          a.Profile.answer_in_exact = in_exact
          && a.Profile.exact_size = exact
          && Float.abs (a.Profile.achieved_precision -. p) < 1e-9
          && Float.abs (a.Profile.achieved_recall -. r) < 1e-9
          && result.Engine.degradation.Engine.guarantees_after.Quality.precision
             <= a.Profile.achieved_precision +. 1e-9
          && result.Engine.degradation.Engine.guarantees_after.Quality.recall
             <= a.Profile.achieved_recall +. 1e-9
          && profile.Profile.audit.Profile.degraded_probes
             = result.Engine.degradation.Engine.failed_probes)

(* (b) The cost meter and the qaq.* counters reconcile with faults on:
   failed attempts are neither metered nor counted, so injecting
   failures cannot skew the two accountings apart. *)
let prop_meter_reconciles_under_faults =
  QCheck2.Test.make ~name:"cost meter reconciles with metrics under faults"
    ~count:8
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 30))
    (fun (fault_seed, pct) ->
      let obs = Obs.create () in
      let result, _ =
        faulted_engine_run ~obs ~total:600 ~fault_seed
          ~transient_rate:(float_of_int pct /. 100.0)
          ~permanent_rate:(float_of_int pct /. 150.0)
          ~engine_seed:(fault_seed + 2) ()
      in
      match Cost_meter.reconcile (Obs.snapshot obs) result.Engine.counts with
      | Ok () -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* (c) A zero-rate fault plan is bit-for-bit the unfaulted run: same
   answer, same costs, same guarantees, same metrics — for the
   sequential and the parallel path alike. *)
let golden_run ~domains ~faults seed =
  let data =
    Synthetic.generate (Rng.create seed) (Synthetic.config ~total:500 ())
  in
  let obs = Obs.create () in
  let source =
    match faults with
    | None -> Probe_source.create ~obs Synthetic.probe
    | Some f -> Probe_source.create ~obs ~faults:f Synthetic.probe
  in
  let result =
    Engine.run ~rng:(Rng.create (seed + 1)) ~max_laxity:100.0 ~domains ~obs
      ~instance:Synthetic.instance
      ~probe:(Probe_source.driver ~obs ~batch_size:8 source)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  ( answer_ids result,
    result.Engine.counts,
    result.Engine.report.Operator.guarantees,
    result.Engine.normalized_cost,
    result.Engine.degradation,
    projection (Obs.snapshot obs) )

let prop_zero_rate_plan_is_identity =
  QCheck2.Test.make ~name:"zero-rate plan is bit-for-bit the unfaulted run"
    ~count:4
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      List.for_all
        (fun domains ->
          golden_run ~domains ~faults:None seed
          = golden_run ~domains
              ~faults:(Some (Fault_plan.make ~seed:(seed + 99) ()))
              seed)
        [ 1; 2 ])

(* --- tiered cascades: cost dominance, per-tier reconcile ------------- *)

let cascade_specs ~power =
  [|
    {
      Probe_tier.name = "proxy";
      kind = Probe_tier.Shrink { power };
      c_p = 0.05;
      c_b = 0.5;
      batch = 32;
    };
    {
      Probe_tier.name = "oracle";
      kind = Probe_tier.Resolve;
      c_p = 1.0;
      c_b = 5.0;
      batch = 8;
    };
  |]

let interval_requirements =
  Quality.requirements ~precision:0.85 ~recall:0.55 ~laxity:20.0

(* One interval-data run, oracle-only or through a cascade, under Fixed
   planning so both runs make identical probe decisions and the only
   difference is what each probe costs. *)
let interval_run ?cascade_power ?faults ~seed () =
  let pred = Predicate.ge 60.0 in
  let data =
    Interval_data.uniform_intervals (Rng.create seed) ~n:500
      ~value_range:(Interval.make 0.0 100.0) ~max_width:30.0
  in
  let scan = Scan_pipeline.rows ~instance:(Interval_data.instance pred) data in
  let obs = Obs.create () in
  (* Reads priced near zero: the dominance property is about probe
     economics, and the two runs' early-stop points may differ by a few
     reads once shrunk-definite objects shift the counter trajectory.
     Region-policy decisions never read the cost model, so this changes
     no decision. *)
  let cost = Cost_model.make ~c_r:0.01 ~c_p:1.0 ~c_b:5.0 ~c_wi:0.1 ~c_wp:0.1 () in
  let earlier = Obs.snapshot obs in
  let result =
    match cascade_power with
    | None ->
        let source =
          match faults with
          | None -> Probe_source.create ~obs Interval_data.probe
          | Some f ->
              Probe_source.create ~obs ~max_retries:2 ~faults:f
                Interval_data.probe
        in
        Engine.run ~rng:(Rng.create (seed + 1)) ~max_laxity:30.0
          ~planning:(Engine.Fixed Policy.greedy_params) ~cost ~obs
          ~instance:(Interval_data.instance pred)
          ~probe:(Probe_source.driver ~obs ~batch_size:8 source)
          ~requirements:interval_requirements scan
    | Some power ->
        let cascade, _sources =
          Tiered.of_functions ~obs ?faults ~max_retries:2
            ~specs:(cascade_specs ~power) ~narrow:Interval_data.shrink
            ~resolve:Interval_data.probe ()
        in
        Engine.run ~rng:(Rng.create (seed + 1)) ~max_laxity:30.0
          ~planning:(Engine.Fixed Policy.greedy_params) ~cost ~obs
          ~instance:(Interval_data.instance pred)
          ~cascade ~requirements:interval_requirements scan
  in
  ( result,
    Profile.of_run ~oracle:(Interval_data.in_exact pred) ~earlier obs scan
      result )

(* (d) Cost dominance: with an effective proxy in front of the oracle,
   the same Fixed plan and the same seed, the metered total of the
   tiered run never exceeds the oracle-only run's — and both answers
   satisfy the same requirements. *)
let prop_tiered_cost_dominates =
  QCheck2.Test.make
    ~name:"tiered metered cost <= oracle-only on the same seed" ~count:8
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let oracle_only, _ = interval_run ~seed () in
      let tiered, profile = interval_run ~cascade_power:0.9 ~seed () in
      tiered.Engine.normalized_cost
      <= oracle_only.Engine.normalized_cost +. 1e-9
      && Quality.meets oracle_only.Engine.report.Operator.guarantees
           interval_requirements
      && Quality.meets tiered.Engine.report.Operator.guarantees
           interval_requirements
      && profile.Profile.reconcile_error = None)

(* (e) The per-tier meter and the qaq.probe.tier.* counters reconcile
   whatever the fault mix — failed attempts are neither metered nor
   counted at any tier, so injection cannot skew the accountings
   apart.  The profile's reconcile runs reconcile_tiers over the run's
   cascade, so one flag covers both layers. *)
let prop_tier_meter_reconciles_under_faults =
  QCheck2.Test.make
    ~name:"per-tier meter reconciles with metrics under faults" ~count:8
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 30))
    (fun (fault_seed, pct) ->
      let faults =
        Fault_plan.make ~seed:fault_seed
          ~transient_rate:(float_of_int pct /. 100.0)
          ~permanent_rate:(float_of_int pct /. 150.0) ()
      in
      let _, profile =
        interval_run ~cascade_power:0.8 ~faults ~seed:(fault_seed + 3) ()
      in
      match profile.Profile.reconcile_error with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

(* --- deterministic replay -------------------------------------------- *)

let replay_run ~domains () =
  let trace, events = Trace.collector () in
  let obs = Obs.create ~trace () in
  let data =
    Synthetic.generate (Rng.create 71) (Synthetic.config ~total:1200 ())
  in
  let faults =
    Fault_plan.make ~seed:303 ~transient_rate:0.1 ~permanent_rate:0.08 ()
  in
  let source = Probe_source.create ~obs ~max_retries:2 ~faults Synthetic.probe in
  let result =
    Engine.run ~rng:(Rng.create 72) ~max_laxity:100.0 ~domains ~obs
      ~instance:Synthetic.instance
      ~probe:(Probe_source.driver ~obs ~batch_size:16 source)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let non_phase =
    List.filter (function Trace.Phase _ -> false | _ -> true) (events ())
  in
  let count p = List.length (List.filter p non_phase) in
  ( result.Engine.degradation,
    answer_ids result,
    projection ~cross_domain:true (Obs.snapshot obs),
    List.length non_phase,
    count (function Trace.Probe_failed _ -> true | _ -> false),
    count (function Trace.Degraded _ -> true | _ -> false) )

let test_deterministic_replay () =
  let (d1, ids1, proj1, events1, failed1, degraded1) as run1 =
    replay_run ~domains:1 ()
  in
  checkb "the plan bites" true (d1.Engine.failed_probes > 0);
  checki "one Probe_failed event per failure" d1.Engine.failed_probes failed1;
  checki "one Degraded event per failure" d1.Engine.failed_probes degraded1;
  checkb "same seed replays identically" true (run1 = replay_run ~domains:1 ());
  let d2, ids2, proj2, events2, failed2, degraded2 = replay_run ~domains:2 () in
  checkb "degradation summary identical across domains" true (d1 = d2);
  checkb "answer identical across domains" true (ids1 = ids2);
  checkb "metric projection identical across domains" true (proj1 = proj2);
  checki "trace event count identical across domains" events1 events2;
  checki "failure events identical across domains" failed1 failed2;
  checki "degraded events identical across domains" degraded1 degraded2

let suite =
  [
    ("failed element spares its siblings", `Quick, test_sibling_survival);
    ("survives 20% permanent failure", `Quick,
     test_engine_survives_20pct_permanent);
    ("wasted cost amortizes batch setup", `Quick,
     test_wasted_cost_amortizes_batch_setup);
    ("fault sweep holds the degradation invariants", `Quick,
     test_fault_sweep_invariants);
    ("deterministic replay", `Slow, test_deterministic_replay);
    QCheck_alcotest.to_alcotest prop_degraded_audit_honest;
    QCheck_alcotest.to_alcotest prop_meter_reconciles_under_faults;
    QCheck_alcotest.to_alcotest prop_zero_rate_plan_is_identity;
    QCheck_alcotest.to_alcotest prop_tiered_cost_dominates;
    QCheck_alcotest.to_alcotest prop_tier_meter_reconciles_under_faults;
  ]
