type plan = {
  params : Policy.params;
  estimate : Selectivity.estimate option;
  evaluation : Solver.evaluation;
  dual : Solver.dual_evaluation option;
  sample_size : int;
}

type planning =
  | Sampled of { fraction : float; density : [ `Uniform | `Histogram ] }
  | Fixed of Policy.params

let default_planning = Sampled { fraction = 0.01; density = `Uniform }

type degradation = Operator.degradation = {
  failed_probes : int;
  failed_attempts : int;
  degraded_forwards : int;
  degraded_ignores : int;
  forced_actions : int;
  wasted_cost : float;
  guarantees_before : Quality.guarantees option;
  guarantees_after : Quality.guarantees;
  requirements_met : bool;
}

type budget_summary = {
  allotted : float;
  spent : float;
  remaining : float;
  target_recall : float;
  budget_limited : bool;
  budget_replans : int;
  stopped_early : bool;
}

type 'o result = {
  report : 'o Operator.report;
  plan : plan option;
  counts : Cost_meter.counts;
  normalized_cost : float;
  degradation : degradation;
  budget : budget_summary option;
  profile : Profile.t option;
  elapsed_seconds : float;
}

let degraded result = result.degradation.failed_probes > 0

type 'o profiling = { prof_label : string; oracle : ('o -> bool) option }

let profiling ?(label = "run") ?oracle () = { prof_label = label; oracle }

type 'o columnar = {
  store : Column_store.t;
  of_row : Column_store.row -> 'o;
  pred : Predicate.t;
  prune : bool;
}

let observed_max_laxity ?pool (instance : _ Operator.instance) data =
  match pool with
  | Some p when Domain_pool.domains p > 1 ->
      Array.fold_left Float.max 0.0
        (Domain_pool.parallel_map p instance.laxity data)
  | _ -> Array.fold_left (fun m o -> Float.max m (instance.laxity o)) 0.0 data

(* The plan stage: the pilot sample (charged to the run's meter) and the
   §4.2.2 solve, the dual against whatever the pilot left of a budget. *)
let make_plan ~rng ~meter ?obs ?pool ~cost ~batch ~tiers ~cap ~budget
    ~instance ~requirements ~fraction ~density data =
  let pilot =
    Planner.pilot ~rng ~fraction ~instance ?pool ~max_laxity:cap
      ~prior:Planner.default_prior ~density data
  in
  let n = pilot.sample_size in
  (* The pilot sample is real work: the paper's planning recipe reads
     each sampled object, so its cost belongs on the same meter as the
     scan's. *)
  for _ = 1 to n do
    Cost_meter.charge_read meter
  done;
  (match obs with
  | Some o ->
      Metrics.add (Obs.counter o Obs.Keys.reads) n;
      Metrics.add (Obs.counter o Obs.Keys.sample_reads) n
  | None -> ());
  (* The pilot sample's reads are already on the meter: the scan can only
     spend what the planning phase left over. *)
  let budget =
    Option.map (fun b -> Float.max 0.0 (b -. Cost_meter.total_cost cost meter))
      budget
  in
  let solution =
    Planner.solve ~total:(Stdlib.max 1 (Array.length data)) ~f_y:pilot.f_y
      ~f_m:pilot.f_m ~density:pilot.density ~max_laxity:cap ~requirements
      ~cost ~batch ~tiers ?budget ()
  in
  {
    params = solution.params;
    estimate = pilot.estimate;
    evaluation = Lazy.force solution.evaluation;
    dual = solution.dual;
    sample_size = n;
  }

let execute_with ?pool ~rng ~planning ~adaptive ~cost ?max_laxity ?budget
    ?deadline ?obs ?emit ?collect ?profile ?columnar ~instance
    ~(cascade : _ Cascade.t) ~requirements data =
  let run_clock =
    match obs with Some o -> Obs.clock o | None -> Span.default_clock
  in
  let run_start = run_clock () in
  let allotted = match budget with Some b -> b | None -> infinity in
  (* [budget = infinity] takes exactly the unbudgeted paths (primal
     planning, no stop condition) so it is bit-for-bit identical to an
     unbudgeted run; only the result summary differs. *)
  let budgeted = Float.is_finite allotted in
  let deadline_start =
    match deadline with Some _ -> Span.default_clock () | None -> 0.0
  in
  (* Planning always runs over [data] — the materialized row view of the
     same objects — so sampling, the rng streams and the laxity cap are
     identical across layouts; only the scan itself switches engines. *)
  (match columnar with
  | Some c when Column_store.length c.store <> Array.length data ->
      invalid_arg "Engine.execute: columnar store length differs from data"
  | _ -> ());
  (* The planner prices probes at the cascade's strategy price — for the
     oracle-only cascade, exactly the amortized c_p + c_b/B at the
     oracle's batch size — and the run's spend is read off the meter per
     tier. *)
  let tiers = Cascade.specs cascade in
  let batch = Probe_driver.batch_size (Cascade.oracle cascade) in
  (* The sampling stream splits off unconditionally, whether or not this
     planning mode samples: the operator's policy stream must be
     identical across modes, so that a Sampled run and a Fixed run with
     the same parameters differ in cost by exactly the sample's reads. *)
  let sample_rng = Rng.split rng in
  let meter = Cost_meter.create () in
  let spent_total () = Cost_meter.tiered_cost cost ~tiers meter in
  (* The profile diffs the metric registry across the run, so a shared
     [?obs] carrying earlier runs' totals still profiles this run alone. *)
  let snap0 =
    match (profile, obs) with
    | Some _, Some o -> Obs.snapshot o
    | _ -> []
  in
  (* The laxity cap needs one scan of the data at most, shared between
     planning and the adaptive estimator. *)
  let laxity_cap =
    lazy
      (match max_laxity with
      | Some l -> l
      | None ->
          let m = observed_max_laxity ?pool instance data in
          if m > 0.0 then m else 1.0)
  in
  let span name f =
    match obs with Some o -> Obs.span o name f | None -> f ()
  in
  let plan, initial =
    match planning with
    | Fixed params -> (None, params)
    | Sampled { fraction; density } ->
        let p =
          span "plan" (fun () ->
              make_plan ~rng:sample_rng ~meter ?obs ?pool ~cost ~batch ~tiers
                ~cap:(Lazy.force laxity_cap)
                ~budget:(if budgeted then Some allotted else None)
                ~instance ~requirements ~fraction ~density data)
        in
        (Some p, p.params)
  in
  (* A finite budget forces adaptivity: mid-flight dual re-solves against
     the remaining budget are what keeps a mis-estimated selectivity from
     blowing it. *)
  let adaptive = adaptive || budgeted in
  let adaptive_state =
    if adaptive then
      Some
        (Adaptive.create ~rng:(Rng.split rng)
           ~total:(Stdlib.max 1 (Array.length data))
           ~max_laxity:(Lazy.force laxity_cap) ~requirements ~cost ~batch
           ~tiers
           ?budget:
             (if budgeted then
                Some { Adaptive.allotted; spent = (fun () -> spent_total ()) }
              else None)
           ~initial ?obs ())
    else None
  in
  let policy =
    match adaptive_state with
    | Some state -> Adaptive.policy state
    | None -> Policy.qaq initial
  in
  (* The anytime stop: refuse the next read when the committed spend
     cannot pay for its worst case.  Committed = metered charges, plus
     each probe still pending on the driver at its full downstream price
     (the probe, its possible precise write, one batch dispatch), plus
     the candidate read's own worst case (read, then probe + batch +
     write, or an imprecise write).  Admitting a read therefore never
     pushes the realized spend past the budget: the scan's spend stays
     within [allotted], strictly below the "one probe batch" overshoot
     the contract allows.  (Only the pilot sample, charged before this
     closure exists, can exceed a budget smaller than the sample
     itself.)  The deadline is wall-clock and inherently
     non-deterministic; the cost budget is exact. *)
  let should_stop =
    let budget_stop =
      if budgeted then begin
        let c = cost in
        (* Worst-case probe path: an object may escalate through every
           tier, paying each tier's probe and one batch dispatch per
           tier — for the oracle-only cascade, exactly c_p + c_b. *)
        let probe_worst, batch_worst =
          Array.fold_left
            (fun (p, b) (s : Probe_tier.spec) ->
              (p +. s.Probe_tier.c_p, b +. s.Probe_tier.c_b))
            (0.0, 0.0) tiers
        in
        let next_read_worst =
          c.Cost_model.c_r
          +. Float.max
               (probe_worst +. batch_worst +. c.Cost_model.c_wp)
               (Float.max c.Cost_model.c_wi c.Cost_model.c_wp)
        in
        Some
          (fun ~pending ->
            let committed =
              spent_total ()
              +. (float_of_int pending *. (probe_worst +. c.Cost_model.c_wp))
              +. (if pending > 0 then batch_worst else 0.0)
            in
            committed +. next_read_worst > allotted)
      end
      else None
    in
    let deadline_stop =
      Option.map
        (fun secs ~pending:_ -> Span.default_clock () -. deadline_start >= secs)
        deadline
    in
    match (budget_stop, deadline_stop) with
    | None, None -> None
    | (Some _ as f), None -> f
    | None, (Some _ as g) -> g
    | Some f, Some g -> Some (fun ~pending -> f ~pending || g ~pending)
  in
  let report =
    span "scan" (fun () ->
        Operator.run ~rng ~meter ?obs ?emit ?collect ?should_stop ~instance
          ~cascade ~policy ~requirements
          (match columnar with
          | None -> Scan_pipeline.source ?obs ?pool ~instance data
          | Some c ->
              Scan_pipeline.columnar ?obs ?pool ~prune:c.prune ~store:c.store
                ~of_row:c.of_row ~pred:(Predicate.compile c.pred) ()))
  in
  let budget_summary =
    match (budget, deadline) with
    | None, None -> None
    | _ ->
        let spent = spent_total () in
        let target_recall, planner_limited =
          match plan with
          | Some { dual = Some d; _ } ->
              (d.Solver.target_recall, d.Solver.budget_limited)
          | _ -> (requirements.Quality.recall, false)
        in
        Some
          {
            allotted;
            spent;
            remaining = Float.max 0.0 (allotted -. spent);
            target_recall;
            budget_limited =
              planner_limited || report.Operator.stopped_early;
            budget_replans =
              (match adaptive_state with
              | Some a -> Adaptive.budget_replans a
              | None -> 0);
            stopped_early = report.Operator.stopped_early;
          }
  in
  (match (obs, pool) with
  | Some o, Some p ->
      Metrics.set
        (Obs.gauge o Obs.Keys.parallel_domains)
        (float_of_int (Domain_pool.domains p));
      Array.iteri
        (fun i busy -> Metrics.set (Obs.gauge o (Obs.Keys.domain_busy i)) busy)
        (Domain_pool.busy_seconds p)
  | _ -> ());
  let counts = Cost_meter.counts meter in
  let profile =
    match (profile, obs) with
    | None, _ | _, None -> None
    | Some pr, Some o ->
        let snap = Metrics.diff ~later:(Obs.snapshot o) ~earlier:snap0 in
        let reconcile_error =
          match
            Cost_meter.reconcile_tiers snap ~names:(Cascade.names cascade)
              meter
          with
          | Ok () -> None
          | Error msg -> Some msg
        in
        (* The oracle audit is pure arithmetic over the answer the run
           already produced — profiling cannot perturb the run. *)
        let ground_truth =
          Option.map
            (fun oracle ->
              let in_answer =
                List.fold_left
                  (fun acc (e : _ Operator.emitted) ->
                    if oracle e.obj then acc + 1 else acc)
                  0 report.Operator.answer
              in
              let exact_size =
                Array.fold_left
                  (fun acc o -> if oracle o then acc + 1 else acc)
                  0 data
              in
              (in_answer, exact_size))
            pr.oracle
        in
        let g = report.Operator.guarantees in
        Some
          (Profile.make ~label:pr.prof_label
             ~counts:
               {
                 Profile.reads = counts.Cost_meter.reads;
                 probes = counts.probes;
                 batches = counts.batches;
                 writes_imprecise = counts.writes_imprecise;
                 writes_precise = counts.writes_precise;
               }
             ~snapshot:snap
             ~requested_precision:requirements.Quality.precision
             ~requested_recall:requirements.Quality.recall
             ~guaranteed_precision:g.precision ~guaranteed_recall:g.recall
             ~guarantees_met:(Quality.meets g requirements)
             ~answer_size:report.Operator.answer_size
             ~degraded_probes:report.Operator.degraded.Operator.failed_probes
             ?budget:
               (Option.map
                  (fun (b : budget_summary) ->
                    {
                      Profile.b_allotted = b.allotted;
                      b_spent = b.spent;
                      b_target_recall = b.target_recall;
                      b_limited = b.budget_limited;
                    })
                  budget_summary)
             ?ground_truth ?reconcile_error ())
  in
  let degradation = report.Operator.degraded in
  (* The audit shortfall surfaces on the trace so the server's flight
     recorder can treat "finished but below the requested quality" as
     an anomaly; deterministic per run, so domain-count determinism
     tests still see identical event streams. *)
  (match obs with
  | Some o when Obs.tracing o && not degradation.requirements_met ->
      let g = report.Operator.guarantees in
      Obs.event o
        (Trace.Shortfall
           {
             requested_precision = requirements.Quality.precision;
             requested_recall = requirements.Quality.recall;
             guaranteed_precision = g.Quality.precision;
             guaranteed_recall = g.Quality.recall;
           })
  | _ -> ());
  {
    report;
    plan;
    counts;
    normalized_cost =
      (if Array.length data = 0 then 0.0
       else spent_total () /. float_of_int (Array.length data));
    degradation;
    budget = budget_summary;
    profile;
    elapsed_seconds = run_clock () -. run_start;
  }

let execute ~rng ?(planning = default_planning) ?(adaptive = false)
    ?(cost = Cost_model.paper) ?batch ?max_laxity ?budget ?deadline ?domains
    ?obs ?emit ?collect ?profile ?on_task ?columnar ~instance ?probe ?cascade
    ~requirements data =
  (match budget with
  | Some b when Float.is_nan b || b < 0.0 ->
      invalid_arg "Engine.execute: budget must be non-negative"
  | _ -> ());
  (match deadline with
  | Some d when Float.is_nan d || d < 0.0 ->
      invalid_arg "Engine.execute: deadline must be non-negative"
  | _ -> ());
  (match max_laxity with
  | Some l when not (Float.is_finite l && l > 0.0) ->
      invalid_arg "Engine.execute: max_laxity must be positive and finite"
  | _ -> ());
  (* The one probe capability: a cascade, with a plain driver wrapped as
     the oracle-only cascade priced at the run's cost model.  [batch] may
     only restate the oracle's batch size — the planner prices probes at
     the cascade's own batch sizes. *)
  let cascade =
    match (probe, cascade) with
    | Some p, None -> Cascade.of_driver ~cost p
    | None, Some c -> c
    | Some _, Some _ ->
        invalid_arg "Engine.execute: pass either ~probe or ~cascade, not both"
    | None, None -> invalid_arg "Engine.execute: a probe capability is required"
  in
  let oracle_batch = Probe_driver.batch_size (Cascade.oracle cascade) in
  (match batch with
  | Some b when b <> oracle_batch ->
      invalid_arg
        (Printf.sprintf
           "Engine.execute: batch %d differs from the oracle's batch size %d" b
           oracle_batch)
  | _ -> ());
  (* Profiling diffs a metrics registry; conjure a private one when the
     caller wants a profile but passed no [?obs]. *)
  let obs =
    match (obs, profile) with None, Some _ -> Some (Obs.create ()) | o, _ -> o
  in
  let run ?pool () =
    execute_with ?pool ~rng ~planning ~adaptive ~cost ?max_laxity ?budget
      ?deadline ?obs ?emit ?collect ?profile ?columnar ~instance ~cascade
      ~requirements data
  in
  match Domain_pool.resolve ?domains () with
  | 1 -> run ()
  | d -> Domain_pool.with_pool ?on_task ~domains:d (fun pool -> run ~pool ())

(* ---- concurrent multi-query execution ----------------------------- *)

(* Trace IDs are minted process-wide so every query a server ever runs
   gets a distinct ID regardless of which batch or domain it lands on. *)
let trace_ids = Atomic.make 1
let next_trace_id () = Atomic.fetch_and_add trace_ids 1

let execute_many ?domains (runs : (unit -> 'o result) array) =
  let n = Array.length runs in
  let d =
    match domains with
    | Some d when d < 1 -> invalid_arg "Engine.execute_many: domains < 1"
    | Some d -> d
    | None -> Stdlib.min (Stdlib.max 1 n) 16
  in
  if n = 0 then [||]
  else if d = 1 || n = 1 then Array.map (fun run -> run ()) runs
  else
    Domain_pool.with_pool ~domains:(Stdlib.min d n) (fun pool ->
        Domain_pool.run_all pool runs)
