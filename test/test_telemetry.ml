(* Tests for the live-telemetry layer: trace contexts leaving answers
   untouched, the flight-recorder ring, rolling windows, the SLO
   tracker's Prometheus family, histogram exposition across
   merge/diff, and the torn-read-free metrics snapshot under real
   domain concurrency. *)

(* The document [Chrome_trace.write] saves. *)
let chrome_json r =
  let path = Filename.temp_file "imprecise_chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome_trace.write r path;
      In_channel.with_open_bin path In_channel.input_all)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let workload total =
  Synthetic.generate (Rng.create 606)
    (Synthetic.config ~total ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0 ())

let requirements = Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0

let pure_driver ?obs () =
  Probe_driver.create_outcomes ?obs ~batch_size:4 (fun objs ->
      Array.map (fun o -> Probe_driver.Resolved (Synthetic.probe o)) objs)

let fingerprint (r : Synthetic.obj Engine.result) =
  ( List.map
      (fun e -> (e.Operator.obj.Synthetic.id, e.Operator.precise))
      r.Engine.report.Operator.answer,
    r.Engine.report.Operator.guarantees,
    r.Engine.counts )

(* Golden identity: a query with the whole telemetry stack on — flight
   recorder on the trace path, a stamped per-query context, shared
   metrics — answers bit-for-bit what the untraced direct path answers. *)
let test_traced_identical_to_untraced () =
  let data = workload 800 in
  let bare =
    Engine.run ~rng:(Rng.create 607) ~max_laxity:100.0 ~domains:1
      ~instance:Synthetic.instance ~probe:(pure_driver ()) ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let recorder = Flight_recorder.create ~capacity:64 () in
  let obs = Obs.create ~trace:(Flight_recorder.sink recorder) () in
  let trace_id = Engine.next_trace_id () in
  let ctx = { Trace.query = Some trace_id; tenant = Some "golden" } in
  let obs_q = Obs.with_context obs ctx in
  let traced =
    (Engine.execute_many ~domains:1
       [|
         (fun () ->
           Engine.run ~rng:(Rng.create 607) ~max_laxity:100.0 ~domains:1
             ~obs:obs_q ~instance:Synthetic.instance
             ~probe:(pure_driver ~obs:obs_q ()) ~requirements
             (Scan_pipeline.rows ~instance:Synthetic.instance data));
       |]).(0)
  in
  checkb "identical answer, guarantees and costs" true
    (fingerprint bare = fingerprint traced);
  checkb "the run was actually recorded" true
    (Flight_recorder.recorded recorder > 0);
  (* Every recorded event carries the query's context. *)
  List.iter
    (fun (_, c, _) ->
      checkb "stamped" true (c.Trace.query = Some trace_id);
      checkb "tenant stamped" true (c.Trace.tenant = Some "golden"))
    (Flight_recorder.entries recorder)

(* The ring: capacity-bounded, FIFO eviction, and a dump is exactly the
   last min(n, capacity) events in arrival order. *)
let prop_recorder_ring =
  QCheck2.Test.make ~name:"flight-recorder ring is the last-N window"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 200))
    (fun (capacity, n) ->
      let r = Flight_recorder.create ~capacity ~clock:(fun () -> 0.0) () in
      for i = 0 to n - 1 do
        Flight_recorder.record r { Trace.query = None; tenant = None }
          (Trace.Note (string_of_int i))
      done;
      let expect =
        List.init (min n capacity) (fun j -> n - min n capacity + j)
      in
      let got =
        List.map
          (fun (_, _, e) ->
            match e with Trace.Note s -> int_of_string s | _ -> -1)
          (Flight_recorder.entries r)
      in
      let dump = Flight_recorder.manual_dump r ~reason:"test" in
      let dumped =
        List.map
          (fun (_, _, e) ->
            match e with Trace.Note s -> int_of_string s | _ -> -1)
          dump.Flight_recorder.events
      in
      Flight_recorder.recorded r = n && got = expect && dumped = expect)

let degraded_event =
  Trace.Degraded { verdict = `Maybe; action = `Forward; forced = true }

(* Per-query rings and automatic anomaly dumps: attribution, dedup per
   (reason, query), and chrome-trace rendering of the dump. *)
let test_recorder_anomaly_dumps () =
  let fired = ref [] in
  let r =
    Flight_recorder.create ~capacity:16
      ~clock:(fun () -> 0.0)
      ~on_dump:(fun d -> fired := d :: !fired)
      ()
  in
  let ctx7 = { Trace.query = Some 7; tenant = Some "acme" } in
  let ctx9 = { Trace.query = Some 9; tenant = None } in
  Flight_recorder.record r ctx7 (Trace.Note "a");
  Flight_recorder.record r ctx9 (Trace.Note "b");
  checki "q7 ring" 1 (List.length (Flight_recorder.entries ~query:7 r));
  checki "q9 ring" 1 (List.length (Flight_recorder.entries ~query:9 r));
  checki "global ring" 2 (List.length (Flight_recorder.entries r));
  Flight_recorder.record r ctx7 degraded_event;
  Flight_recorder.record r ctx7 degraded_event;
  (* Same (reason, query): one dump only. *)
  checki "dump dedup" 1 (List.length (Flight_recorder.dumps r));
  Flight_recorder.record r ctx9 (Trace.Breaker { state = "open"; round = 3 });
  let dumps = Flight_recorder.dumps r in
  checki "distinct anomalies dump" 2 (List.length dumps);
  checki "on_dump fired per dump" 2 (List.length !fired);
  let d7 = List.hd dumps in
  Alcotest.(check string) "reason" "degraded-forced" d7.Flight_recorder.reason;
  checkb "attributed" true (d7.Flight_recorder.query = Some 7);
  checkb "tenant carried" true (d7.Flight_recorder.tenant = Some "acme");
  (* The q7 dump holds only q7's history. *)
  List.iter
    (fun (_, c, _) -> checkb "dump is per-query" true (c.Trace.query = Some 7))
    d7.Flight_recorder.events;
  let json = Flight_recorder.dump_to_json d7 in
  checkb "chrome-trace document" true (contains json "\"traceEvents\"");
  checkb "query row named" true (contains json "query 7 (acme)");
  Alcotest.(check string)
    "filename" "flight-q7-degraded-forced.json"
    (Flight_recorder.dump_filename d7)

(* The recorder keeps run-level events only.  Teed next to a collector
   on one engine run, its entries are exactly the collector's events
   minus the per-object ones, in order, each stamped with the query's
   context. *)
let per_object = function
  | Trace.Read _ | Trace.Decision _ | Trace.Probe_resolved _
  | Trace.Probe_shrunk _ ->
      true
  | _ -> false

let test_recorder_keeps_run_level_events () =
  let data = workload 800 in
  let recorder = Flight_recorder.create ~capacity:4096 () in
  let collect, collected = Trace.collector () in
  let obs =
    Obs.create ~trace:(Trace.tee (Flight_recorder.sink recorder) collect) ()
  in
  let ctx = { Trace.query = Some 41; tenant = Some "tee" } in
  let obs_q = Obs.with_context obs ctx in
  ignore
    (Engine.run ~rng:(Rng.create 607) ~max_laxity:100.0 ~domains:1
       ~obs:obs_q ~instance:Synthetic.instance
       ~probe:(pure_driver ~obs:obs_q ()) ~requirements
       (Scan_pipeline.rows ~instance:Synthetic.instance data));
  let all = collected () in
  checkb "the run emitted per-object events" true (List.exists per_object all);
  let expect = List.filter (fun e -> not (per_object e)) all in
  let entries = Flight_recorder.entries recorder in
  checki "recorded counts the kept events" (List.length expect)
    (Flight_recorder.recorded recorder);
  checkb "entries are the run-level events, in order" true
    (List.map (fun (_, _, e) -> e) entries = expect);
  List.iter
    (fun (_, c, _) -> checkb "stamped with the query" true (c = ctx))
    entries

let gen_context =
  QCheck2.Gen.(
    map2
      (fun query tenant -> { Trace.query; tenant })
      (oneofl [ None; Some 7; Some 9 ])
      (oneofl [ None; Some "acme"; Some "b\"q" ]))

(* One ring: a query's entries (and its manual dump) are the ring
   filtered by trace ID, oldest first, whatever the interleaving. *)
let prop_query_entries_filter_the_ring =
  QCheck2.Test.make ~name:"per-query entries are the ring filtered"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 40) (list_size (int_range 0 120) gen_context))
    (fun (capacity, ctxs) ->
      let r = Flight_recorder.create ~capacity ~clock:(fun () -> 0.0) () in
      List.iteri
        (fun i ctx ->
          Flight_recorder.record r ctx (Trace.Batch { size = i }))
        ctxs;
      let ring = Flight_recorder.entries r in
      List.for_all
        (fun q ->
          let expect =
            List.filter (fun (_, c, _) -> c.Trace.query = Some q) ring
          in
          Flight_recorder.entries ~query:q r = expect
          && (Flight_recorder.manual_dump ~query:q r ~reason:"t")
               .Flight_recorder.events
             = expect)
        [ 7; 9; 11 ])

let gen_float =
  QCheck2.Gen.oneofl [ 0.0; 1e-3; 0.25; 2.0; -1.0; Float.nan; Float.infinity ]

let gen_event =
  let open QCheck2.Gen in
  let verdict = oneofl [ `Yes; `No; `Maybe ] in
  let action = oneofl [ `Forward; `Probe; `Ignore ] in
  oneof
    [
      map (fun verdict -> Trace.Read { verdict }) verdict;
      map4
        (fun verdict action laxity success ->
          Trace.Decision { verdict; action; laxity; success })
        verdict action gen_float gen_float;
      map (fun verdict -> Trace.Probe_resolved { verdict }) verdict;
      map (fun verdict -> Trace.Probe_shrunk { verdict }) verdict;
      map (fun attempts -> Trace.Probe_failed { attempts }) small_nat;
      map3
        (fun verdict action forced -> Trace.Degraded { verdict; action; forced })
        verdict action bool;
      map2
        (fun state round -> Trace.Breaker { state; round })
        (oneofl [ "open"; "half-open"; "closed" ])
        small_nat;
      map (fun size -> Trace.Batch { size }) small_nat;
      map2
        (fun reads recall -> Trace.Early_termination { reads; recall })
        small_nat gen_float;
      map2
        (fun reads recall -> Trace.Budget_stop { reads; recall })
        small_nat gen_float;
      map (fun reads -> Trace.Replan { reads }) small_nat;
      map4
        (fun a b c d ->
          Trace.Shortfall
            {
              requested_precision = a;
              requested_recall = b;
              guaranteed_precision = c;
              guaranteed_recall = d;
            })
        gen_float gen_float gen_float gen_float;
      map2
        (fun name seconds -> Trace.Phase { name; seconds })
        (oneofl [ "plan"; "scan"; "a \"quoted\" span" ])
        gen_float;
      map (fun s -> Trace.Note s) (oneofl [ ""; "note"; "tab\there" ]);
    ]

(* The live chrome-trace sink and the dump renderer are one code path:
   a stamped stream recorded under a fake clock (one lane, no pool
   tasks) exports exactly the document [json_of_entries] renders from
   the same triples.  The first event lands at the recorder's creation,
   so both documents count time from the same epoch.  Timestamps repeat
   on purpose, so equal-time events must keep their recording order in
   both. *)
let prop_chrome_sink_is_json_of_entries =
  QCheck2.Test.make ~name:"chrome-trace sink exports json_of_entries"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (triple (oneofl [ 0.0; 0.0; 1e-4; 0.5 ]) gen_context gen_event))
    (fun stream ->
      let stream =
        match stream with
        | (_, ctx, ev) :: rest -> (0.0, ctx, ev) :: rest
        | [] -> []
      in
      let now = ref 100.0 in
      let chrome = Chrome_trace.create ~clock:(fun () -> !now) () in
      let sink = Chrome_trace.sink chrome in
      let stamped =
        List.map
          (fun (dt, ctx, ev) ->
            now := !now +. dt;
            Trace.emit_ctx sink ctx ev;
            (!now, ctx, ev))
          stream
      in
      Chrome_trace.events chrome = List.length stream
      && chrome_json chrome
         = Chrome_trace.json_of_entries stamped)

(* Rolling SLO windows under a fake clock: totals age out slice by
   slice, rates divide by the window, quantiles come from the windowed
   distribution.  Every field of one sample lands in one slice, even
   under a clock that moves on each read, and reading a tenant
   registers nothing. *)
let test_rolling_window () =
  let now = ref 0.0 in
  let sample slo ?(latency = nan) ?(degraded = false) ?(shortfall = false)
      probes =
    Slo.observe slo
      {
        Slo.tenant = "a";
        latency_seconds = latency;
        probes;
        degraded;
        rejections = 0;
        shortfall;
      }
  in
  (* Twelve slices of 2 s. *)
  let slo = Slo.create ~window_seconds:24.0 ~clock:(fun () -> !now) () in
  sample slo 5;
  now := 4.0;
  sample slo 3;
  let r () = Slo.report slo "a" in
  checkf 1e-9 "both inside the window" 2.0 (r ()).Slo.r_requests;
  checkf 1e-9 "rate = total / window" (2.0 /. 24.0) (r ()).Slo.r_rate;
  checkf 1e-9 "probe rate = total / window" (8.0 /. 24.0) (r ()).Slo.r_probe_rate;
  now := 25.0;
  checkf 1e-9 "first slice aged out" 1.0 (r ()).Slo.r_requests;
  checkf 1e-9 "its probes with it" (3.0 /. 24.0) (r ()).Slo.r_probe_rate;
  now := 40.0;
  checkf 1e-9 "all history aged out" 0.0 (r ()).Slo.r_requests;
  sample slo ~latency:2.0 0;
  checkf 1e-9 "single observation is exact" 2.0 (r ()).Slo.r_p50;
  now := 70.0;
  checkf 1e-9 "latency ages out too" 0.0 (r ()).Slo.r_requests;
  checkb "idle quantile is nan" true (Float.is_nan (r ()).Slo.r_p50);
  (* A clock that moves 0.25 s on every read: one sample's fields must
     not straddle slices, or they age out at different times. *)
  let clock () =
    let t = !now in
    now := t +. 0.25;
    t
  in
  (* Twelve slices of 1 s. *)
  let slo = Slo.create ~window_seconds:12.0 ~clock () in
  now := 8.9;
  sample slo ~latency:0.1 ~degraded:true ~shortfall:true 1;
  now := 20.5;
  let r = Slo.report slo "a" in
  checkf 1e-9 "the sample aged out" 0.0 r.Slo.r_requests;
  checkf 1e-9 "its shortfall with it" 0.0 r.Slo.r_shortfalls;
  now := 12.0;
  sample slo ~latency:0.2 1;
  now := 20.5;
  let r = Slo.report slo "a" in
  checkf 1e-9 "the healthy sample is in" 1.0 r.Slo.r_requests;
  checkf 1e-9 "no degraded fraction left behind" 0.0 r.Slo.r_degraded;
  checkf 1e-9 "no latency left behind" 0.2 r.Slo.r_p50;
  checkf 1e-9 "no shortfall left behind" 0.0 r.Slo.r_shortfalls;
  let ghost = Slo.report slo "ghost" in
  checkf 1e-9 "an unknown tenant reads as idle" 0.0 ghost.Slo.r_requests;
  Alcotest.(check (list string))
    "reading a tenant registers nothing" [ "a" ] (List.map (fun r -> r.Slo.r_tenant) (Slo.reports slo))

(* The SLO tracker: per-tenant and aggregate reports, and the
   hand-labelled Prometheus family. *)
let test_slo_reports () =
  let now = ref 0.0 in
  let slo = Slo.create ~window_seconds:60.0 ~clock:(fun () -> !now) () in
  let sample tenant latency degraded shortfall =
    Slo.observe slo
      {
        Slo.tenant;
        latency_seconds = latency;
        probes = 10;
        degraded;
        rejections = 0;
        shortfall;
      }
  in
  sample "a" 0.1 false false;
  sample "a" 0.3 true true;
  sample "b" 0.2 false false;
  Alcotest.(check (list string)) "tenants" [ "a"; "b" ] (List.map (fun r -> r.Slo.r_tenant) (Slo.reports slo));
  let ra = Slo.report slo "a" in
  checkf 1e-9 "requests" 2.0 ra.Slo.r_requests;
  checkf 1e-9 "degraded fraction" 0.5 ra.Slo.r_degraded;
  checkf 1e-9 "shortfalls" 1.0 ra.Slo.r_shortfalls;
  let all = Slo.overall slo in
  checkf 1e-9 "aggregate requests" 3.0 all.Slo.r_requests;
  checkf 1e-9 "aggregate probe rate" 0.5 all.Slo.r_probe_rate;
  (* Rejected-at-admission requests carry no latency: counted, not
     polluting the quantiles. *)
  Slo.observe slo
    {
      Slo.tenant = "a";
      latency_seconds = nan;
      probes = 0;
      degraded = false;
      rejections = 1;
      shortfall = false;
    };
  let ra = Slo.report slo "a" in
  checkf 1e-9 "rejection counted" 1.0 ra.Slo.r_rejections;
  checkf 1e-9 "request counted" 3.0 ra.Slo.r_requests;
  checkb "latency quantile unpolluted" true (ra.Slo.r_p99 <= 0.3 +. 1e-9);
  let prom = Slo.to_prometheus slo in
  checkb "tenant label" true (contains prom "qaq_slo_request_rate{tenant=\"a\"}");
  checkb "aggregate label" true
    (contains prom "qaq_slo_shortfalls{tenant=\"_all\"}");
  checkb "help lines" true (contains prom "# TYPE qaq_slo_latency_p99_seconds gauge")

(* Histogram exposition across merge/diff: a window diff re-merged onto
   the earlier capture reproduces the later one exactly, down to the
   Prometheus text. *)
let test_prometheus_merge_diff () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat.seconds" in
  Metrics.observe h 1.0;
  Metrics.observe h 2.0;
  let s1 = Metrics.snapshot m in
  Metrics.observe h 3.0;
  Metrics.observe h 4.0;
  Metrics.observe h 5.0;
  let s2 = Metrics.snapshot m in
  let d = Metrics.diff ~later:s2 ~earlier:s1 in
  let dist_of s = Option.get (Metrics.dist_of s "lat.seconds") in
  let window = dist_of d in
  checki "window count" 3 window.Metrics.d_count;
  let merged = Metrics.merge_dist (dist_of s1) window in
  checkb "merge(earlier, diff) = later" true (merged = dist_of s2);
  Alcotest.(check string)
    "identical Prometheus exposition"
    (Metrics.to_prometheus s2)
    (Metrics.to_prometheus [ ("lat.seconds", Metrics.Dist merged) ]);
  let text = Metrics.to_prometheus s2 in
  checkb "count line" true (contains text "lat_seconds_count 5");
  checkb "sum line" true (contains text "lat_seconds_sum 15");
  checkb "+Inf bucket" true (contains text "le=\"+Inf\"} 5")

(* Snapshot atomicity under real concurrency: two domains hammer
   overlapping-key broker clients while the main domain snapshots the
   shared registry; the broker identity requests = admitted + coalesced
   + fresh_hits + rejected must hold in every single snapshot — a torn
   read between the grouped increments would break it. *)
let test_snapshot_hammer () =
  let obs = Obs.create () in
  let broker =
    Probe_broker.create ~obs ~freshness:0.0 ~key:Fun.id
      [|
        Probe_broker.backend ~batch:4 (fun objs ->
            Array.map (fun k -> Probe_driver.Resolved k) objs);
      |]
  in
  let rounds = 300 in
  let worker tenant =
    Domain.spawn (fun () ->
        for i = 0 to rounds - 1 do
          let d = Probe_broker.client ~tenant broker in
          for k = 0 to 7 do
            Probe_driver.submit_outcome d ((i * 8 + k) mod 97) (fun _ -> ())
          done;
          Probe_driver.flush d
        done)
  in
  let a = worker "a" and b = worker "b" in
  let torn = ref 0 in
  let snapshots = ref 0 in
  let running = ref true in
  while !running do
    let s = Obs.snapshot obs in
    let count = Metrics.count_of s in
    if
      count Obs.Keys.broker_requests
      <> count Obs.Keys.broker_admitted
         + count Obs.Keys.broker_coalesced
         + count Obs.Keys.broker_fresh_hits
         + count Obs.Keys.broker_rejected
    then incr torn;
    incr snapshots;
    if !snapshots > 20000 then running := false;
    (* Stop once both workers are done (joining twice is an error, so
       poll cheaply via a final snapshot count check). *)
    if !snapshots mod 64 = 0 && Probe_broker.(stats broker).requests
       >= 2 * rounds * 8
    then running := false
  done;
  Domain.join a;
  Domain.join b;
  checki "no torn snapshot" 0 !torn;
  checkb "snapshots actually raced the workers" true (!snapshots > 0);
  let s = Probe_broker.stats broker in
  checki "final identity" s.Probe_broker.requests
    (s.Probe_broker.admitted + s.Probe_broker.coalesced
   + s.Probe_broker.fresh_hits + s.Probe_broker.rejected)

let suite =
  [
    ("traced query identical to untraced", `Quick,
     test_traced_identical_to_untraced);
    QCheck_alcotest.to_alcotest prop_recorder_ring;
    ("recorder anomaly dumps", `Quick, test_recorder_anomaly_dumps);
    ("recorder keeps run-level events only", `Quick,
     test_recorder_keeps_run_level_events);
    QCheck_alcotest.to_alcotest prop_query_entries_filter_the_ring;
    QCheck_alcotest.to_alcotest prop_chrome_sink_is_json_of_entries;
    ("rolling windows age out", `Quick, test_rolling_window);
    ("slo reports and prometheus family", `Quick, test_slo_reports);
    ("histogram exposition across merge/diff", `Quick,
     test_prometheus_merge_diff);
    ("snapshot atomicity under domains", `Quick, test_snapshot_hammer);
  ]
