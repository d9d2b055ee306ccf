type plan = {
  params : Policy.params;
  estimate : Selectivity.estimate option;
  evaluation : Solver.evaluation;
  dual : Solver.dual_evaluation option;
  sample_size : int;
  max_laxity : float;
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
  reconcile : Metrics.snapshot -> (unit, string) Stdlib.result;
  elapsed_seconds : float;
}

let degraded result = result.degradation.failed_probes > 0

type 'o columnar = {
  store : Column_store.t;
  of_row : Column_store.row -> 'o;
  pred : Predicate.t;
  prune : bool;
}

(* The plan stage: the pilot sample (charged to the run's meter) and the
   §4.2.2 solve, the dual against whatever the pilot left of a budget. *)
let make_plan ~rng ~meter ?obs ?on_task ~lanes ~cost ~tiers ?max_laxity
    ~budget ~instance ~requirements ~fraction ~density
    (source : _ Scan_pipeline.t) =
  let pilot =
    Planner.pilot ~rng ~fraction ~instance ?on_task ~lanes ?max_laxity
      ~prior:Planner.default_prior ~density source
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
    Planner.solve ~total:(Stdlib.max 1 source.length) ~f_y:pilot.f_y
      ~f_m:pilot.f_m ~density:pilot.density ~max_laxity:pilot.max_laxity
      ~requirements ~cost ~tiers ?budget ()
  in
  {
    params = solution.params;
    estimate = pilot.estimate;
    evaluation = Lazy.force solution.evaluation;
    dual = solution.dual;
    sample_size = n;
    max_laxity = pilot.max_laxity;
  }

let run ~rng ?(planning = default_planning) ?(adaptive = false)
    ?(cost = Cost_model.paper) ?max_laxity ?budget ?deadline ?domains ?obs
    ?on_task ~instance ?probe ?cascade ~requirements
    (source : _ Scan_pipeline.t) =
  (match budget with
  | Some b when Float.is_nan b || b < 0.0 ->
      invalid_arg "Engine.run: budget must be non-negative"
  | _ -> ());
  (match deadline with
  | Some d when Float.is_nan d || d < 0.0 ->
      invalid_arg "Engine.run: deadline must be non-negative"
  | _ -> ());
  (match max_laxity with
  | Some l when not (Float.is_finite l && l > 0.0) ->
      invalid_arg "Engine.run: max_laxity must be positive and finite"
  | _ -> ());
  (* The one probe capability: a cascade, with a plain driver wrapped as
     the oracle-only cascade priced at the run's cost model. *)
  let cascade =
    match (probe, cascade) with
    | Some p, None -> Cascade.of_driver ~cost p
    | None, Some c -> c
    | Some _, Some _ ->
        invalid_arg "Engine.run: pass either ~probe or ~cascade, not both"
    | None, None -> invalid_arg "Engine.run: a probe capability is required"
  in
  let lanes = Domain_pool.resolve ?domains () in
  (* With [obs], each lane's busy seconds, summed from the lanes' task
     intervals, become the [qaq.parallel.*] gauges. *)
  let on_task, set_gauges =
    match obs with
    | Some o when lanes > 1 ->
        let busy = Array.make lanes 0.0 and lock = Mutex.create () in
        ( Some
            (fun ~lane ~start ~finish ->
              Mutex.protect lock (fun () ->
                  busy.(lane) <- busy.(lane) +. (finish -. start));
              Option.iter (fun f -> f ~lane ~start ~finish) on_task),
          fun () ->
            Metrics.set
              (Obs.gauge o Obs.Keys.parallel_domains)
              (float_of_int lanes);
            Array.iteri
              (fun i b -> Metrics.set (Obs.gauge o (Obs.Keys.domain_busy i)) b)
              busy )
    | _ -> ((if lanes > 1 then on_task else None), ignore)
  in
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
  (* The planner prices probes at the cascade's strategy price — for the
     oracle-only cascade, exactly the amortized c_p + c_b/B at the
     oracle's batch size — and the run's spend is read off the meter per
     tier. *)
  let tiers = Cascade.specs cascade in
  (* The sampling stream splits off unconditionally, whether or not this
     planning mode samples: the operator's policy stream must be
     identical across modes, so that a Sampled run and a Fixed run with
     the same parameters differ in cost by exactly the sample's reads. *)
  let sample_rng = Rng.split rng in
  let meter = Cost_meter.create () in
  let spent_total () = Cost_meter.tiered_cost cost ~tiers meter in
  let span name f =
    match obs with Some o -> Obs.span o name f | None -> f ()
  in
  let plan, initial =
    match planning with
    | Fixed params -> (None, params)
    | Sampled { fraction; density } ->
        let p =
          span "plan" (fun () ->
              make_plan ~rng:sample_rng ~meter ?obs ?on_task ~lanes ~cost
                ~tiers ?max_laxity
                ~budget:(if budgeted then Some allotted else None)
                ~instance ~requirements ~fraction ~density source)
        in
        (Some p, p.params)
  in
  (* The plan's laxity cap came from the pilot's own pass over the
     source; an unplanned adaptive run reads the source for it. *)
  let laxity_cap =
    lazy
      (match plan with
      | Some p -> p.max_laxity
      | None -> snd (source.sample ?max_laxity [||]))
  in
  (* A finite budget forces adaptivity: mid-flight dual re-solves against
     the remaining budget are what keeps a mis-estimated selectivity from
     blowing it. *)
  let adaptive = adaptive || budgeted in
  let adaptive_state =
    if adaptive then
      Some
        (Adaptive.create ~rng:(Rng.split rng)
           ~total:(Stdlib.max 1 source.length)
           ~max_laxity:(Lazy.force laxity_cap) ~requirements ~cost ~tiers
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
        Operator.run ~rng ~meter ?obs ?should_stop ~instance
          ~cascade ~policy ~requirements
          (source.cursor ?obs ?on_task ~lanes ()))
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
  let result =
    {
      report;
      plan;
      counts = Cost_meter.counts meter;
      normalized_cost =
        (if source.length = 0 then 0.0
         else spent_total () /. float_of_int source.length);
      degradation;
      budget = budget_summary;
      reconcile =
        (fun snapshot ->
          let names = Array.map (fun (s : Probe_tier.spec) -> s.name) tiers in
          Cost_meter.reconcile_tiers snapshot ~names meter);
      elapsed_seconds = run_clock () -. run_start;
    }
  in
  set_gauges ();
  result

let execute ~rng ?cost ?batch ?domains ?obs ?columnar ~instance ?probe
    ?cascade ~requirements data =
  let oracle =
    match probe with Some d -> Some d | None -> Option.map Cascade.oracle cascade
  in
  (match (batch, oracle) with
  | Some b, Some d when b <> Probe_driver.batch_size d ->
      invalid_arg
        (Printf.sprintf
           "Engine.execute: batch %d differs from the oracle's batch size %d" b
           (Probe_driver.batch_size d))
  | _ -> ());
  let rows = Scan_pipeline.rows ~instance data in
  let cursor =
    match columnar with
    | None -> rows.cursor
    | Some c ->
        if Column_store.length c.store <> Array.length data then
          invalid_arg "Engine.execute: columnar store length differs from data";
        (Scan_pipeline.store ~prune:c.prune ~of_row:c.of_row ~pred:c.pred
           c.store)
          .cursor
  in
  run ~rng ?cost ?domains ?obs ~instance ?probe ?cascade ~requirements
    { rows with cursor }

(* ---- concurrent multi-query execution ----------------------------- *)

(* Trace IDs are minted process-wide so every query a server ever runs
   gets a distinct ID regardless of which batch or domain it lands on. *)
let trace_ids = Atomic.make 1
let next_trace_id () = Atomic.fetch_and_add trace_ids 1

let default_lanes = 16
