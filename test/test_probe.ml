(* Tests for probe sources and the sensor-network simulator. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let value = function
  | Probe_driver.Resolved x -> x
  | Probe_driver.Shrunk _ | Probe_driver.Failed _ ->
      Alcotest.fail "expected a Resolved outcome"

(* One object through a source: a one-element batch. *)
let probe_one source o = (Probe_source.probe_batch_outcomes source [| o |]).(0)

let resolve_all f objs = Array.map value (f objs)

let test_probe_source_basic () =
  let source = Probe_source.create (fun x -> x * 2) in
  checki "resolves" 10 (value (probe_one source 5));
  checki "again" 14 (value (probe_one source 7));
  let s = Probe_source.stats source in
  checki "probes" 2 s.probes;
  checki "attempts" 2 s.attempts;
  Alcotest.(check (float 0.0)) "no latency" 0.0 s.simulated_latency

let test_probe_source_latency () =
  let source = Probe_source.create ~latency:(Probe_source.Constant 3.0) Fun.id in
  ignore (probe_one source 1);
  ignore (probe_one source 2);
  Alcotest.(check (float 1e-9)) "latency accumulates" 6.0
    (Probe_source.stats source).simulated_latency

let test_probe_source_failures () =
  let rng = Rng.create 5 in
  let source =
    Probe_source.create ~failure_rate:0.5 ~max_retries:50 ~rng Fun.id
  in
  for i = 1 to 100 do
    checki "eventually succeeds" i (value (probe_one source i))
  done;
  let s = Probe_source.stats source in
  checki "100 probes" 100 s.probes;
  checkb "more attempts than probes" true (s.attempts > 100);
  (* Expected attempts/probe at p=0.5 is 2; allow wide slack. *)
  checkb "attempt ratio sane" true
    (s.attempts < 400)

let test_probe_source_exhausts_retries () =
  (* failure_rate just below 1 with zero retries fails almost surely on
     some attempt within a few tries. *)
  let rng = Rng.create 6 in
  let source =
    Probe_source.create ~failure_rate:0.99 ~max_retries:0 ~rng Fun.id
  in
  let failed =
    List.find_map
      (fun i ->
        match probe_one source i with
        | Probe_driver.Failed { attempts } -> Some attempts
        | Probe_driver.Resolved _ | Probe_driver.Shrunk _ -> None)
      (List.init 20 succ)
  in
  Alcotest.(check (option int)) "a probe failed after one attempt" (Some 1)
    failed

let test_probe_source_latency_per_attempt () =
  (* Latency is a property of the attempt, not the success: every retry
     of a flaky source pays the round trip again. *)
  let rng = Rng.create 21 in
  let source =
    Probe_source.create ~latency:(Probe_source.Constant 2.0) ~failure_rate:0.5
      ~max_retries:50 ~rng Fun.id
  in
  for i = 1 to 50 do
    checki "resolves" i (value (probe_one source i))
  done;
  let s = Probe_source.stats source in
  checki "50 probes" 50 s.probes;
  checkb "retries happened" true (s.attempts > s.probes);
  (* Scalar probes wake the source once per attempt. *)
  checki "one wakeup per attempt" s.attempts s.batches;
  Alcotest.(check (float 1e-9))
    "latency = attempts * constant"
    (float_of_int s.attempts *. 2.0)
    s.simulated_latency

let test_probe_source_fails_only_after_retries () =
  (* An element may only settle as Failed once max_retries + 1 attempts
     have been spent on it. *)
  let rng = Rng.create 22 in
  let source =
    Probe_source.create ~failure_rate:0.999999 ~max_retries:4 ~rng Fun.id
  in
  (match probe_one source 1 with
  | Probe_driver.Failed { attempts } ->
      checki "failed after 5 attempts" 5 attempts
  | Probe_driver.Resolved _ | Probe_driver.Shrunk _ ->
      Alcotest.fail "resolved");
  let s = Probe_source.stats source in
  checki "all retries spent first" 5 s.attempts;
  checki "no probe recorded" 0 s.probes

let test_probe_batch_accounting () =
  (* A clean batch is one wakeup: one latency sample, one batch count,
     however many elements ride along. *)
  let source =
    Probe_source.create ~latency:(Probe_source.Constant 2.0) (fun x -> x * 2)
  in
  let out =
    resolve_all (Probe_source.probe_batch_outcomes source) [| 1; 2; 3; 4; 5 |]
  in
  Alcotest.(check (array int)) "order kept" [| 2; 4; 6; 8; 10 |] out;
  let s = Probe_source.stats source in
  checki "five probes" 5 s.probes;
  checki "five attempts" 5 s.attempts;
  checki "one wakeup" 1 s.batches;
  Alcotest.(check (float 1e-9)) "one round trip" 2.0 s.simulated_latency;
  ignore (Probe_source.probe_batch_outcomes source [||]);
  checki "empty batch is free" 1 (Probe_source.stats source).batches

let test_probe_batch_partial_failure () =
  (* When some elements of a round fail, only those ride into the next
     round; the others' results are not lost, and order is kept. *)
  let rng = Rng.create 23 in
  let source =
    Probe_source.create ~latency:(Probe_source.Constant 1.0) ~failure_rate:0.5
      ~max_retries:100 ~rng (fun x -> x + 100)
  in
  let input = Array.init 16 (fun i -> i) in
  let out = resolve_all (Probe_source.probe_batch_outcomes source) input in
  Alcotest.(check (array int))
    "all resolved in order"
    (Array.map (fun x -> x + 100) input)
    out;
  let s = Probe_source.stats source in
  checki "every element probed once" 16 s.probes;
  checkb "some elements retried" true (s.attempts > s.probes);
  checkb "retries grouped into rounds" true (s.batches < s.attempts);
  (* Each round pays latency once for the whole pending set. *)
  Alcotest.(check (float 1e-9))
    "latency per round"
    (float_of_int s.batches *. 1.0)
    s.simulated_latency

let test_probe_batch_retry_exhaustion () =
  let rng = Rng.create 24 in
  let source =
    Probe_source.create ~failure_rate:0.999999 ~max_retries:2 ~rng Fun.id
  in
  Array.iter
    (function
      | Probe_driver.Failed { attempts } ->
          checki "failed after 3 attempts" 3 attempts
      | Probe_driver.Resolved _ | Probe_driver.Shrunk _ ->
          Alcotest.fail "resolved")
    (Probe_source.probe_batch_outcomes source [| 1; 2; 3 |])

let test_probe_source_driver () =
  (* Probe_source.driver delivers the batch path through Probe_driver:
     one wakeup per full batch. *)
  let source =
    Probe_source.create ~latency:(Probe_source.Constant 3.0) (fun x -> x * 10)
  in
  let driver = Probe_source.driver ~batch_size:4 source in
  let results = ref [] in
  for i = 1 to 8 do
    Probe_driver.submit_outcome driver i (fun r ->
        results := value r :: !results)
  done;
  Alcotest.(check (list int))
    "two auto-flushed batches, in order"
    [ 10; 20; 30; 40; 50; 60; 70; 80 ]
    (List.rev !results);
  checki "driver probes" 8 (Probe_driver.probes driver);
  checki "driver batches" 2 (Probe_driver.batches driver);
  let s = Probe_source.stats source in
  checki "source wakeups match batches" 2 s.batches;
  Alcotest.(check (float 1e-9)) "latency per batch" 6.0 s.simulated_latency

let test_probe_source_validation () =
  Alcotest.check_raises "rng required"
    (Invalid_argument "Probe_source.create: rng required for jitter or failures")
    (fun () -> ignore (Probe_source.create ~failure_rate:0.1 Fun.id));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Probe_source.create: failure_rate outside [0, 1)")
    (fun () -> ignore (Probe_source.create ~failure_rate:1.0 Fun.id));
  let bad_latency latency =
    Alcotest.check_raises "bad latency"
      (Invalid_argument "Probe_source.create: latency negative or not finite")
      (fun () -> ignore (Probe_source.create ~latency ~rng:(Rng.create 1) Fun.id))
  in
  bad_latency (Probe_source.Constant (-3.0));
  bad_latency (Probe_source.Constant Float.nan);
  bad_latency (Probe_source.Constant Float.infinity);
  bad_latency (Probe_source.Jittered { base = -1.0; jitter = 1.0 });
  bad_latency (Probe_source.Jittered { base = 1.0; jitter = -1.0 });
  bad_latency (Probe_source.Jittered { base = Float.nan; jitter = 1.0 });
  bad_latency (Probe_source.Jittered { base = 1.0; jitter = Float.infinity })

let make_net ?(n = 200) ?(drift = 1.0) seed =
  Sensor_net.create (Rng.create seed) ~n
    ~value_range:(Interval.make 0.0 100.0)
    ~tolerance_range:(Interval.make 1.0 5.0)
    ~drift_stddev:drift

let test_sensor_net_replicas_sound () =
  let net = make_net 10 in
  for _ = 1 to 100 do
    Sensor_net.step net
  done;
  (* The invariant of the approximate-replication protocol: the truth is
     always inside the cached interval. *)
  Array.iter
    (fun (r : Sensor_net.reading) ->
      checkb "truth inside replica" true (Interval.contains r.cached r.current))
    (Sensor_net.snapshot net)

let test_sensor_net_transmissions () =
  let quiet = make_net ~drift:0.01 11 in
  let noisy = make_net ~drift:5.0 11 in
  for _ = 1 to 50 do
    Sensor_net.step quiet;
    Sensor_net.step noisy
  done;
  checkb "noisy drifts transmit more" true
    (Sensor_net.transmissions noisy > Sensor_net.transmissions quiet);
  checki "quiet barely transmits" 0 (Sensor_net.transmissions quiet)

let test_sensor_net_instance () =
  let net = make_net 12 in
  for _ = 1 to 20 do
    Sensor_net.step net
  done;
  let pred = Predicate.ge 50.0 in
  let instance = Sensor_net.instance pred in
  Array.iter
    (fun (r : Sensor_net.reading) ->
      (* YES/NO classifications must agree with ground truth. *)
      (match instance.classify r with
      | Tvl.Yes -> checkb "yes is true" true (Sensor_net.in_exact pred r)
      | Tvl.No -> checkb "no is false" false (Sensor_net.in_exact pred r)
      | Tvl.Maybe -> ());
      (* Probing yields a definite, zero-laxity reading. *)
      let probed = Sensor_net.probe r in
      checkb "probe definite" true (Tvl.is_definite (instance.classify probed));
      Alcotest.(check (float 0.0)) "probe laxity" 0.0 (instance.laxity probed))
    (Sensor_net.snapshot net)

let test_sensor_net_validation () =
  let bad_drift drift =
    Alcotest.check_raises "bad drift"
      (Invalid_argument
         "Sensor_net.create: drift_stddev negative or not finite")
      (fun () -> ignore (make_net ~drift 14))
  in
  bad_drift (-1.0);
  bad_drift Float.nan;
  bad_drift Float.infinity

let test_sensor_net_batch_radio () =
  (* Radio model over a probe source: one wakeup per batch (c_b), one
     message per sensor (c_p). *)
  let net = make_net 13 in
  for _ = 1 to 20 do
    Sensor_net.step net
  done;
  let radio = Probe_source.create Sensor_net.probe in
  let readings = Array.sub (Sensor_net.snapshot net) 0 6 in
  let probed = resolve_all (Probe_source.probe_batch_outcomes radio) readings in
  Array.iter
    (fun (r : Sensor_net.reading) -> checkb "resolved" true r.resolved)
    probed;
  checki "one wakeup" 1 (Probe_source.stats radio).batches;
  checki "one message per sensor" 6 (Probe_source.stats radio).attempts;
  let driver = Probe_source.driver ~batch_size:3 radio in
  Array.iter (fun r -> Probe_driver.submit_outcome driver r ignore) readings;
  checki "two more wakeups via driver" 3 (Probe_source.stats radio).batches;
  checki "messages accumulate" 12 (Probe_source.stats radio).attempts

(* Regression: two sources sharing one obs registry used to lump their
   stats onto the same [probe_source.*] names; with tier labels each
   keeps its own slice and retries are attributed to the tier that
   burned them. *)
let test_probe_source_per_tier_stats () =
  let obs = Obs.create () in
  let proxy =
    Probe_source.create ~obs ~tier:"proxy" ~failure_rate:0.5 ~max_retries:50
      ~rng:(Rng.create 31) (fun x -> x + 1)
  in
  let oracle = Probe_source.create ~obs ~tier:"oracle" (fun x -> x * 2) in
  ignore
    (resolve_all (Probe_source.probe_batch_outcomes proxy) (Array.init 32 Fun.id));
  ignore
    (resolve_all (Probe_source.probe_batch_outcomes oracle) (Array.init 5 Fun.id));
  let sp = Probe_source.stats proxy and so = Probe_source.stats oracle in
  checki "proxy resolved all" 32 sp.probes;
  checki "oracle resolved all" 5 so.probes;
  checkb "proxy retried" true (sp.attempts > sp.probes);
  let snap = Obs.snapshot obs in
  let count = Metrics.count_of snap in
  checki "proxy slice mirrors the proxy source" sp.probes
    (count "probe_source.proxy.resolved");
  checki "oracle slice mirrors the oracle source" so.probes
    (count "probe_source.oracle.resolved");
  checki "proxy attempts on the proxy slice" sp.attempts
    (count "probe_source.proxy.attempts");
  checki "nothing lumped onto the unprefixed name" 0
    (count "probe_source.resolved");
  checki "retries attributed to the proxy tier" (sp.attempts - sp.probes)
    (count (Obs.Keys.tier_retried "proxy"));
  checki "oracle tier never retried" 0 (count (Obs.Keys.tier_retried "oracle"))

let suite =
  [
    ("probe source basics", `Quick, test_probe_source_basic);
    ("probe source latency", `Quick, test_probe_source_latency);
    ("probe source failures and retries", `Quick, test_probe_source_failures);
    ("probe source retry exhaustion", `Quick, test_probe_source_exhausts_retries);
    ("latency charged per attempt", `Quick, test_probe_source_latency_per_attempt);
    ("failure only after retries spent", `Quick, test_probe_source_fails_only_after_retries);
    ("batch accounting", `Quick, test_probe_batch_accounting);
    ("batch partial failure retries", `Quick, test_probe_batch_partial_failure);
    ("batch retry exhaustion", `Quick, test_probe_batch_retry_exhaustion);
    ("batch driver integration", `Quick, test_probe_source_driver);
    ("probe source validation", `Quick, test_probe_source_validation);
    ("sensor replicas are sound", `Quick, test_sensor_net_replicas_sound);
    ("sensor transmissions scale with drift", `Quick, test_sensor_net_transmissions);
    ("sensor reading instance", `Quick, test_sensor_net_instance);
    ("sensor net validation", `Quick, test_sensor_net_validation);
    ("sensor batch radio accounting", `Quick, test_sensor_net_batch_radio);
    ("per-tier probe source stats", `Quick, test_probe_source_per_tier_stats);
  ]
