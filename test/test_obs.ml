(* Tests for the observability layer: the metrics registry, trace sinks,
   span timing, and — the load-bearing invariant — exact reconciliation
   of the qaq.* counters against the run's cost meter. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "test.reads" in
  checki "fresh counter at 0" 0 (Metrics.count c);
  Metrics.incr c;
  Metrics.add c 4;
  checki "incr + add" 5 (Metrics.count c);
  checki "registered under its name" 5 (Metrics.count_of (Metrics.snapshot m) "test.reads");
  (* Handles are stable: the registry returns the same cell. *)
  Metrics.incr (Metrics.counter m "test.reads");
  checki "get-or-create shares the cell" 6 (Metrics.count c);
  let g = Metrics.gauge m "test.level" in
  Metrics.set g 2.5;
  checkf 0.0 "gauge level" 2.5 (Metrics.level g);
  Alcotest.check_raises "counter/gauge clash"
    (Invalid_argument "Metrics.gauge: test.reads is registered as a counter")
    (fun () -> ignore (Metrics.gauge m "test.reads"));
  Alcotest.check_raises "gauge/counter clash"
    (Invalid_argument "Metrics.counter: test.level is registered as a gauge")
    (fun () -> ignore (Metrics.counter m "test.level"));
  Alcotest.check_raises "counters are monotonic"
    (Invalid_argument "Metrics.add: negative increment") (fun () ->
      Metrics.add c (-1))

let test_snapshot_and_diff () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "b.count") 3;
  Metrics.set (Metrics.gauge m "a.level") 1.5;
  let earlier = Metrics.snapshot m in
  (* Snapshots are name-sorted. *)
  Alcotest.(check (list string))
    "sorted names" [ "a.level"; "b.count" ]
    (List.map fst earlier);
  checki "count_of" 3 (Metrics.count_of earlier "b.count");
  checki "count_of absent is 0" 0 (Metrics.count_of earlier "nope");
  Metrics.add (Metrics.counter m "b.count") 4;
  Metrics.set (Metrics.gauge m "a.level") 9.0;
  Metrics.incr (Metrics.counter m "c.fresh");
  let later = Metrics.snapshot m in
  let d = Metrics.diff ~later ~earlier in
  checki "counter delta" 4 (Metrics.count_of d "b.count");
  checki "fresh counter full value" 1 (Metrics.count_of d "c.fresh");
  (match Metrics.get d "a.level" with
  | Some (Metrics.Level l) -> checkf 0.0 "gauge keeps later level" 9.0 l
  | _ -> Alcotest.fail "gauge missing from diff");
  (* A frozen snapshot does not follow the registry. *)
  checki "earlier unchanged" 3 (Metrics.count_of earlier "b.count")

let test_json_export () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "x.count") 7;
  Metrics.set (Metrics.gauge m "x.nan") Float.nan;
  Metrics.set (Metrics.gauge m "quote\"name") 1.0;
  let json = Metrics.to_json (Metrics.snapshot m) in
  checkb "counter exported" true
    (String.length json > 0
    && contains json "\"x.count\": 7");
  checkb "non-finite gauge is null" true
    (contains json "\"x.nan\": null");
  checkb "quotes escaped" true
    (contains json "quote\\\"name")

let test_prometheus_export () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "qaq.reads") 12;
  Metrics.set (Metrics.gauge m "span.plan.seconds") 0.5;
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  checkb "TYPE line, mangled name" true
    (contains text "# TYPE qaq_reads counter");
  checkb "sample line" true (contains text "qaq_reads 12");
  checkb "gauge typed" true
    (contains text "# TYPE span_plan_seconds gauge")

(* An update takes the registry lock inline: no closure per call, so an
   uncontended counter costs no minor-heap words at all. *)
let test_incr_allocates_nothing () =
  let m = Metrics.create () in
  let c = Metrics.counter m "alloc.incr" in
  Metrics.incr c;
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Metrics.incr c
  done;
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "%.0f minor words over %d incr (< 1 per call)" words calls)
    true
    (words < float_of_int calls);
  checki "every incr counted" (calls + 1) (Metrics.count c)

(* ---- histograms --------------------------------------------------- *)

let test_histogram_basics () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  (* Values observed so far, read under the histogram's name. *)
  let observations () =
    match Metrics.dist_of (Metrics.snapshot m) "lat" with
    | Some d -> d.Metrics.d_count
    | None -> Alcotest.fail "histogram not registered under its name"
  in
  checki "fresh histogram empty" 0 (observations ());
  List.iter (Metrics.observe h) [ 0.010; 0.020; 0.030; 0.040 ];
  checki "observations" 4 (observations ());
  (* Handles are stable, like counters. *)
  Metrics.observe (Metrics.histogram m "lat") 0.020;
  checki "get-or-create shares the cell" 5 (observations ());
  let d = Option.get (Metrics.dist_of (Metrics.snapshot m) "lat") in
  checki "dist count" 5 d.Metrics.d_count;
  checkf 1e-9 "dist sum" 0.12 d.Metrics.d_sum;
  checkf 0.0 "min" 0.010 d.Metrics.d_min;
  checkf 0.0 "max" 0.040 d.Metrics.d_max;
  (* The log layout guarantees <= ~19% relative error per bucket. *)
  let p50 = Metrics.quantile d 0.5 in
  checkb "p50 near 0.02" true (p50 >= 0.015 && p50 <= 0.025);
  let p100 = Metrics.quantile d 1.0 in
  checkb "quantiles stay in the observed range" true
    (p100 >= d.Metrics.d_min && p100 <= d.Metrics.d_max);
  (* Same contract as Hist1d: bad observations are call-site bugs. *)
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Metrics.observe: non-finite value") (fun () ->
      Metrics.observe h Float.nan);
  Alcotest.check_raises "infinity rejected"
    (Invalid_argument "Metrics.observe: non-finite value") (fun () ->
      Metrics.observe h Float.infinity);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Metrics.observe: negative value") (fun () ->
      Metrics.observe h (-1.0));
  checki "rejected observations not recorded" 5 (observations ());
  (* Kind clashes are rejected like counter/gauge clashes. *)
  Alcotest.check_raises "histogram/counter clash"
    (Invalid_argument "Metrics.counter: lat is registered as a histogram")
    (fun () -> ignore (Metrics.counter m "lat"))

let test_histogram_edge_cases () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "edge" in
  let empty = Option.get (Metrics.dist_of (Metrics.snapshot m) "edge") in
  checki "empty count" 0 empty.Metrics.d_count;
  checkb "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile empty 0.5));
  checkb "empty min +inf" true (empty.Metrics.d_min = Float.infinity);
  checkb "empty max -inf" true (empty.Metrics.d_max = Float.neg_infinity);
  (* A single observation comes back exactly at every quantile. *)
  Metrics.observe h 0.037;
  let one = Option.get (Metrics.dist_of (Metrics.snapshot m) "edge") in
  List.iter
    (fun q ->
      checkf 0.0
        (Printf.sprintf "single observation at q=%g" q)
        0.037 (Metrics.quantile one q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (* Zero is a legal observation (bucket 0), not a rejection. *)
  Metrics.observe h 0.0;
  let two = Option.get (Metrics.dist_of (Metrics.snapshot m) "edge") in
  checki "zero observed" 2 two.Metrics.d_count;
  checkf 0.0 "zero is the min" 0.0 two.Metrics.d_min

let test_histogram_merge_disjoint () =
  let m = Metrics.create () in
  let lo = Metrics.histogram m "lo" and hi = Metrics.histogram m "hi" in
  List.iter (Metrics.observe lo) [ 1e-6; 2e-6; 3e-6 ];
  List.iter (Metrics.observe hi) [ 10.0; 20.0 ];
  let s = Metrics.snapshot m in
  let dlo = Option.get (Metrics.dist_of s "lo")
  and dhi = Option.get (Metrics.dist_of s "hi") in
  let u = Metrics.merge_dist dlo dhi in
  checki "merged count" 5 u.Metrics.d_count;
  checkf 1e-9 "merged sum" 30.000006 u.Metrics.d_sum;
  checkf 0.0 "merged min" 1e-6 u.Metrics.d_min;
  checkf 0.0 "merged max" 20.0 u.Metrics.d_max;
  (* The bucket ranges are disjoint: the median stays in the low mass,
     the tail quantile jumps across the gap to the high mass. *)
  checkb "p50 in the low range" true (Metrics.quantile u 0.5 < 1e-3);
  checkb "p99 in the high range" true (Metrics.quantile u 0.99 > 1.0);
  (* Merging with the empty capture is the identity on the data. *)
  let id = Metrics.merge_dist dlo Metrics.empty_dist in
  checki "merge with empty keeps count" 3 id.Metrics.d_count;
  checkf 0.0 "merge with empty keeps min" 1e-6 id.Metrics.d_min;
  checkf 0.0 "merge with empty keeps max" 3e-6 id.Metrics.d_max

(* A tally merged into a histogram leaves the counts, buckets and
   extrema observing the same values one by one would; the sum agrees
   to rounding. *)
let test_tally_merge () =
  let values =
    List.init 200 (fun i -> float_of_int ((i * 37) mod 101) *. 0.25)
  in
  let m = Metrics.create () in
  let direct = Metrics.histogram m "direct"
  and merged = Metrics.histogram m "merged" in
  List.iter (Metrics.observe direct) [ 3.0; 0.5 ];
  List.iter (Metrics.observe merged) [ 3.0; 0.5 ];
  let t = Metrics.tally () in
  Metrics.merge_tally merged t;
  List.iter (Metrics.observe direct) values;
  List.iter (Metrics.tally_observe t) values;
  let d0 = Option.get (Metrics.dist_of (Metrics.snapshot m) "merged") in
  checki "an empty tally merges as nothing" 2 d0.Metrics.d_count;
  Metrics.merge_tally merged t;
  let s = Metrics.snapshot m in
  let a = Option.get (Metrics.dist_of s "direct")
  and b = Option.get (Metrics.dist_of s "merged") in
  checki "count" a.Metrics.d_count b.Metrics.d_count;
  checkb "buckets" true (a.Metrics.d_buckets = b.Metrics.d_buckets);
  checkf 0.0 "min" a.Metrics.d_min b.Metrics.d_min;
  checkf 0.0 "max" a.Metrics.d_max b.Metrics.d_max;
  checkf 1e-9 "sum" a.Metrics.d_sum b.Metrics.d_sum;
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Metrics.tally_observe: non-finite value") (fun () ->
      Metrics.tally_observe t Float.nan);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Metrics.tally_observe: negative value") (fun () ->
      Metrics.tally_observe t (-1.0))

let test_histogram_diff_and_json () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "d.lat" in
  Metrics.observe h 1.0;
  Metrics.observe h 2.0;
  let earlier = Metrics.snapshot m in
  Metrics.observe h 4.0;
  let later = Metrics.snapshot m in
  let d =
    Option.get (Metrics.dist_of (Metrics.diff ~later ~earlier) "d.lat")
  in
  checki "diff count" 1 d.Metrics.d_count;
  checkf 1e-9 "diff sum" 4.0 d.Metrics.d_sum;
  (* min/max keep the later capture's — they still bound the window. *)
  checkf 0.0 "diff max" 4.0 d.Metrics.d_max;
  let json = Metrics.to_json later in
  checkb "histogram count exported" true (contains json "\"count\": 3");
  checkb "histogram quantiles exported" true (contains json "\"p50\":");
  (* An empty histogram exports null extrema and quantiles, count 0. *)
  let m2 = Metrics.create () in
  ignore (Metrics.histogram m2 "none");
  let j2 = Metrics.to_json (Metrics.snapshot m2) in
  checkb "empty count 0" true (contains j2 "\"count\": 0");
  checkb "empty min null" true (contains j2 "\"min\": null");
  checkb "empty quantile null" true (contains j2 "\"p50\": null")

let test_prometheus_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "probe.flush_seconds" in
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 5.0 ];
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  checkb "TYPE histogram, mangled name" true
    (contains text "# TYPE probe_flush_seconds histogram");
  checkb "bucket series present" true
    (contains text "probe_flush_seconds_bucket{le=");
  checkb "+Inf closes the cumulative series with the total" true
    (contains text "probe_flush_seconds_bucket{le=\"+Inf\"} 4");
  checkb "sum series" true (contains text "probe_flush_seconds_sum ");
  checkb "count series" true (contains text "probe_flush_seconds_count 4")

(* Mangling to the Prometheus charset is lossy ("a.b" and "a_b" both
   become "a_b"); ambiguous registrations must be rejected up front, not
   silently merged at scrape time. *)
let test_prometheus_name_collisions () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "a.b");
  (* Same name, same kind: fine (get-or-create). *)
  ignore (Metrics.counter m "a.b");
  Alcotest.check_raises "a_b collides with a.b"
    (Invalid_argument
       "Metrics: \"a_b\" collides with \"a.b\" in Prometheus exposition \
        (both mangle to \"a_b\")")
    (fun () -> ignore (Metrics.counter m "a_b"));
  (* The histogram's derived _bucket/_sum/_count series are reserved
     too: a counter that would mangle onto one of them is rejected. *)
  ignore (Metrics.histogram m "h");
  Alcotest.check_raises "h.count collides with histogram series h_count"
    (Invalid_argument
       "Metrics: \"h.count\" collides with \"h\" in Prometheus exposition \
        (both mangle to \"h_count\")")
    (fun () -> ignore (Metrics.counter m "h.count"))

let test_trace_sinks () =
  checkb "null disabled" false (Trace.enabled Trace.null);
  (* Emitting into the null sink is a no-op, not an error. *)
  Trace.emit Trace.null (Trace.Note "dropped");
  let sink, events = Trace.collector () in
  checkb "collector enabled" true (Trace.enabled sink);
  Trace.emit sink (Trace.Read { verdict = `Maybe });
  Trace.emit sink (Trace.Batch { size = 3 });
  (match events () with
  | [ Trace.Read { verdict = `Maybe }; Trace.Batch { size = 3 } ] -> ()
  | es -> Alcotest.failf "unexpected events (%d)" (List.length es));
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Trace.emit (Trace.formatter ppf) (Trace.Read { verdict = `No });
  Format.pp_print_flush ppf ();
  Alcotest.(check string) "formatter line" "trace: read NO\n"
    (Buffer.contents buf)

let test_span_timing () =
  let now = ref 10.0 in
  let obs = Obs.create ~clock:(fun () -> !now) () in
  let result =
    Obs.span obs "phase" (fun () ->
        now := !now +. 2.5;
        42)
  in
  checki "span returns the body's value" 42 result;
  ignore (Obs.span obs "phase" (fun () -> now := !now +. 1.5));
  let s = Obs.snapshot obs in
  checki "calls counted" 2 (Metrics.count_of s "span.phase.calls");
  (match Metrics.get s "span.phase.seconds" with
  | Some (Metrics.Level l) -> checkf 1e-9 "seconds accumulate" 4.0 l
  | _ -> Alcotest.fail "span gauge missing");
  (* A raising body still records its time. *)
  (try
     Obs.span obs "phase" (fun () ->
         now := !now +. 1.0;
         failwith "boom")
   with Failure _ -> ());
  checki "raising call counted" 3
    (Metrics.count_of (Obs.snapshot obs) "span.phase.calls")

(* Spans and the lanes' task intervals share one wall clock
   (Unix.gettimeofday).  Under the old CPU-time clock (Sys.time) a span
   around sleeping workers read ~0 while the lanes accumulated real
   seconds — the regression this pins down: the span must cover at least
   the call's busy time (its [on_task] intervals) spread across its
   lanes. *)
let test_span_wall_clock_covers_pool_busy () =
  let obs = Obs.create () in
  let lanes = 2 in
  let busy = ref 0.0 and busy_lock = Mutex.create () in
  let on_task ~lane:_ ~start ~finish =
    Mutex.protect busy_lock (fun () -> busy := !busy +. (finish -. start))
  in
  let tasks = Array.init 8 (fun i -> i) in
  let result =
    Obs.span obs "pool-work" (fun () ->
        Domain_pool.map ~on_task ~lanes ~chunk_size:1
          (fun i ->
            Unix.sleepf 0.02;
            i)
          tasks)
  in
  Alcotest.(check (array int)) "map result intact" tasks result;
  let busy = !busy in
  checkb "pool accumulated real busy time" true (busy > 0.1);
  match Metrics.get (Obs.snapshot obs) "span.pool-work.seconds" with
  | Some (Metrics.Level s) ->
      checkb
        (Printf.sprintf "span %.4fs covers busy %.4fs over %d lanes" s busy
           lanes)
        true
        (s >= busy /. float_of_int lanes *. 0.5)
  | _ -> Alcotest.fail "span gauge missing"

(* ---- reconciliation: metrics vs the cost meter ------------------- *)

let requirements = Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0

let test_operator_reconciles () =
  let data =
    Synthetic.generate (Rng.create 31) (Synthetic.config ~total:2000 ())
  in
  let obs = Obs.create () in
  let meter = Cost_meter.create () in
  let report =
    Operator.run ~rng:(Rng.create 32) ~meter ~obs ~instance:Synthetic.instance
      ~cascade:
        (Cascade.of_driver
           (Probe_driver.of_scalar ~obs ~batch_size:4 Synthetic.probe))
      ~policy:Policy.stingy ~requirements
      (Operator.source_of_array data)
  in
  checkb "did some work" true (report.Operator.counts.reads > 0);
  match Cost_meter.reconcile (Obs.snapshot obs) (Cost_meter.counts meter) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* The golden invariant: for every engine configuration, the qaq.*
   counters written at the instrumentation sites equal the cost meter's
   counts written at the charge sites — planning sample included.  Two
   inputs: this file's own workload, and the standard workload under the
   standard configurations. *)
let test_engine_reconciles () =
  let inputs =
    [
      ( Synthetic.generate (Rng.create 41) (Synthetic.config ~total:3000 ()),
        42,
        requirements,
        [ (1, false); (4, false); (1, true); (4, true) ] );
      ( Standard_workload.data (),
        Standard_workload.engine_seed,
        Standard_workload.requirements,
        List.map (fun (_, batch, adaptive) -> (batch, adaptive))
          Standard_workload.configs );
    ]
  in
  List.iter
    (fun (data, seed, requirements, configs) ->
      List.iter
        (fun (batch, adaptive) ->
          let obs = Obs.create () in
          let result =
            Engine.run ~rng:(Rng.create seed) ~adaptive ~max_laxity:100.0
              ~obs ~instance:Synthetic.instance
              ~probe:
                (Probe_driver.of_scalar ~obs ~batch_size:batch Synthetic.probe)
              ~requirements
              (Scan_pipeline.rows ~instance:Synthetic.instance data)
          in
          let tag what =
            Printf.sprintf "%s (seed %d, B=%d adaptive=%b)" what seed batch
              adaptive
          in
          let snapshot = Obs.snapshot obs in
          (match Cost_meter.reconcile snapshot result.Engine.counts with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (tag msg));
          (* The driver's own counters agree with the operator's view. *)
          checki (tag "driver probes") result.Engine.counts.probes
            (Metrics.count_of snapshot "probe_driver.probes");
          checki (tag "driver batches") result.Engine.counts.batches
            (Metrics.count_of snapshot "probe_driver.batches");
          (* Reconcile is not vacuous: perturb one count and it must fail. *)
          let skewed =
            { result.Engine.counts with reads = result.Engine.counts.reads + 1 }
          in
          match Cost_meter.reconcile snapshot skewed with
          | Ok () -> Alcotest.fail (tag "reconcile accepted skewed counts")
          | Error _ -> ())
        configs)
    inputs

(* The operator's counters reach the registry once per run.  Four
   engine runs through a two-tier cascade with faults (so probes,
   shrinks, failovers and degradations all occur) run two at a time on
   one shared registry: every qaq.* base counter equals the sum of the
   runs' meter counts, every per-tier counter the sum over the same runs
   on private registries (each reconciled per tier with its run's meter
   by [result.reconcile]), and the MAYBE histograms' counts,
   buckets and extrema the merge of the private ones. *)
let test_concurrent_runs_sum_exactly () =
  let pred = Predicate.ge 60.0 in
  let data =
    Interval_data.uniform_intervals (Rng.create 61) ~n:800
      ~value_range:(Interval.make 0.0 100.0) ~max_width:30.0
  in
  let specs =
    [|
      { Probe_tier.name = "proxy"; kind = Probe_tier.Shrink { power = 0.8 };
        c_p = 0.05; c_b = 0.5; batch = 16 };
      { Probe_tier.name = "oracle"; kind = Probe_tier.Resolve; c_p = 1.0;
        c_b = 5.0; batch = 4 };
    |]
  in
  let requirements =
    Quality.requirements ~precision:0.85 ~recall:0.7 ~laxity:20.0
  in
  let runs = 4 in
  let run obs i =
    let faults =
      Fault_plan.make ~seed:(70 + i) ~transient_rate:0.05
        ~permanent_rate:0.05 ()
    in
    let cascade, _ =
      Tiered.of_functions ~faults ~max_retries:1 ~specs
        ~narrow:Interval_data.shrink ~resolve:Interval_data.probe ()
    in
    let result =
      Engine.run ~rng:(Rng.create (80 + i)) ~max_laxity:30.0 ~domains:1
        ~obs ~instance:(Interval_data.instance pred) ~cascade ~requirements
        (Scan_pipeline.rows ~instance:(Interval_data.instance pred) data)
    in
    (result, Cascade.stats cascade)
  in
  let shared = Obs.create () in
  let stats = Array.make runs [||] in
  let results =
    Engine.execute_many ~domains:2
      (Array.init runs (fun i () ->
           let result, st = run shared i in
           stats.(i) <- st;
           result))
  in
  let privates =
    Array.init runs (fun i ->
        let obs = Obs.create () in
        let result, _ = run obs i in
        (result, Obs.snapshot obs))
  in
  let snap = Obs.snapshot shared in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  Array.iteri
    (fun i (r, s) ->
      checkb (Printf.sprintf "run %d: same counts alone" i) true
        (r.Engine.counts = results.(i).Engine.counts);
      Alcotest.(check (result unit string))
        (Printf.sprintf "run %d: private per-tier registry reconciles" i)
        (Ok ()) (r.Engine.reconcile s))
    privates;
  List.iter
    (fun (key, f) -> checki key (sum f) (Metrics.count_of snap key))
    [
      (Obs.Keys.reads, fun r -> r.Engine.counts.Cost_meter.reads);
      (Obs.Keys.probes, fun r -> r.Engine.counts.Cost_meter.probes);
      (Obs.Keys.batches, fun r -> r.Engine.counts.Cost_meter.batches);
      ( Obs.Keys.writes_imprecise,
        fun r -> r.Engine.counts.Cost_meter.writes_imprecise );
      ( Obs.Keys.writes_precise,
        fun r -> r.Engine.counts.Cost_meter.writes_precise );
      ( Obs.Keys.fault_degraded,
        fun r -> r.Engine.degradation.Engine.failed_probes );
    ];
  let private_sum key =
    Array.fold_left (fun acc (_, s) -> acc + Metrics.count_of s key) 0 privates
  in
  Array.iteri
    (fun t (spec : Probe_tier.spec) ->
      let name = spec.Probe_tier.name in
      List.iter
        (fun key -> checki key (private_sum key) (Metrics.count_of snap key))
        [
          Obs.Keys.tier_probes name;
          Obs.Keys.tier_batches name;
          Obs.Keys.tier_shrinks name;
          Obs.Keys.tier_failovers name;
        ];
      let stat f = Array.fold_left (fun acc st -> acc + f st.(t)) 0 stats in
      checki (name ^ " shrinks = the drivers' count")
        (stat (fun st -> st.Cascade.st_shrinks))
        (Metrics.count_of snap (Obs.Keys.tier_shrinks name));
      checki (name ^ " failovers = the cascades' count")
        (stat (fun st -> st.Cascade.st_failovers))
        (Metrics.count_of snap (Obs.Keys.tier_failovers name)))
    specs;
  checkb "probes happened at both tiers" true
    (Array.for_all
       (fun (spec : Probe_tier.spec) ->
         Metrics.count_of snap (Obs.Keys.tier_probes spec.Probe_tier.name) > 0)
       specs);
  checkb "a proxy failed over" true
    (Metrics.count_of snap (Obs.Keys.tier_failovers "proxy") > 0);
  checkb "an oracle failure degraded" true
    (Metrics.count_of snap Obs.Keys.fault_degraded > 0);
  List.iter
    (fun key ->
      let whole = Option.get (Metrics.dist_of snap key) in
      let parts =
        Array.fold_left
          (fun acc (_, s) ->
            Metrics.merge_dist acc (Option.get (Metrics.dist_of s key)))
          Metrics.empty_dist privates
      in
      checkb (key ^ " observed") true (whole.Metrics.d_count > 0);
      checki (key ^ " count") parts.Metrics.d_count whole.Metrics.d_count;
      checkb (key ^ " buckets") true
        (parts.Metrics.d_buckets = whole.Metrics.d_buckets);
      checkf 0.0 (key ^ " min") parts.Metrics.d_min whole.Metrics.d_min;
      checkf 0.0 (key ^ " max") parts.Metrics.d_max whole.Metrics.d_max)
    [ Obs.Keys.maybe_laxity; Obs.Keys.maybe_success ]

(* A run that raises still publishes what it charged: a probe that
   stops resolving after twenty calls makes the run raise
   [Inconsistent_probe], and the registry then holds exactly the
   meter's counts at the raise. *)
let test_raising_run_publishes () =
  let data =
    Synthetic.generate (Rng.create 33) (Synthetic.config ~total:2000 ())
  in
  let obs = Obs.create () in
  let meter = Cost_meter.create () in
  let calls = ref 0 in
  let probe o =
    incr calls;
    if !calls <= 20 then Synthetic.probe o else o
  in
  (match
     Operator.run ~rng:(Rng.create 34) ~meter ~obs
       ~instance:Synthetic.instance
       ~cascade:(Cascade.of_driver (Probe_driver.scalar probe))
       ~policy:Policy.stingy ~requirements
       (Operator.source_of_array data)
   with
  | _ -> Alcotest.fail "the unresolved probe did not raise"
  | exception Operator.Inconsistent_probe -> ());
  let counts = Cost_meter.counts meter in
  let snap = Obs.snapshot obs in
  checkb "the run probed before raising" true (counts.probes > 20);
  checki "reads" counts.reads (Metrics.count_of snap Obs.Keys.reads);
  checki "probes" counts.probes (Metrics.count_of snap Obs.Keys.probes);
  checki "batches" counts.batches (Metrics.count_of snap Obs.Keys.batches);
  match Cost_meter.reconcile snap counts with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Observability must be pure observation: attaching it changes no
   decision, no answer, no charge. *)
let test_obs_does_not_perturb () =
  let data =
    Synthetic.generate (Rng.create 51) (Synthetic.config ~total:2000 ())
  in
  let run obs_opt =
    let sink, _ = Trace.collector () in
    ignore sink;
    Engine.run ~rng:(Rng.create 52) ~max_laxity:100.0 ?obs:obs_opt
      ~instance:Synthetic.instance
      ~probe:(Probe_driver.of_scalar ~batch_size:4 Synthetic.probe)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let plain = run None in
  let sink, _events = Trace.collector () in
  let observed = run (Some (Obs.create ~trace:sink ())) in
  checkb "same counts" true (plain.Engine.counts = observed.Engine.counts);
  checkb "same answer size" true
    (plain.Engine.report.answer_size = observed.Engine.report.answer_size);
  checkf 0.0 "same cost" plain.Engine.normalized_cost
    observed.Engine.normalized_cost

let suite =
  [
    ("metrics registry", `Quick, test_metrics_registry);
    ("incr allocates nothing", `Quick, test_incr_allocates_nothing);
    ("snapshot and diff", `Quick, test_snapshot_and_diff);
    ("json export", `Quick, test_json_export);
    ("prometheus export", `Quick, test_prometheus_export);
    ("histogram basics", `Quick, test_histogram_basics);
    ("histogram edge cases", `Quick, test_histogram_edge_cases);
    ("histogram merge of disjoint ranges", `Quick, test_histogram_merge_disjoint);
    ("tally merges like observing", `Quick, test_tally_merge);
    ("histogram diff and json", `Quick, test_histogram_diff_and_json);
    ("prometheus histogram exposition", `Quick, test_prometheus_histogram);
    ("prometheus name collisions rejected", `Quick,
     test_prometheus_name_collisions);
    ("trace sinks", `Quick, test_trace_sinks);
    ("span timing", `Quick, test_span_timing);
    ("span wall clock covers pool busy time", `Quick,
     test_span_wall_clock_covers_pool_busy);
    ("operator reconciles with meter", `Quick, test_operator_reconciles);
    ("engine reconciles across configs", `Quick, test_engine_reconciles);
    ("concurrent runs sum exactly", `Quick, test_concurrent_runs_sum_exactly);
    ("a raising run still publishes", `Quick, test_raising_run_publishes);
    ("observability does not perturb the run", `Quick, test_obs_does_not_perturb);
  ]
