(* Tests for the cross-query probe broker: single-query transparency,
   dedup/coalescing accounting, cross-tenant batch packing, admission
   control, and scheduling-independence of concurrent execution. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pure_resolve objs =
  Array.map (fun o -> Probe_driver.Resolved (Synthetic.probe o)) objs

let obj_key (o : Synthetic.obj) = o.Synthetic.id

(* A plain oracle as the broker's one backend. *)
let oracle ?(batch = 1) resolve =
  [| Probe_broker.backend ~batch resolve |]

(* One object through a fresh client of [tenant] pinned to [tier]: the
   broker's scalar [fetch] on behalf of a named tenant or tier. *)
let fetch_as ?tenant ?tier broker o =
  let d = Probe_broker.client ?tenant ?tier broker in
  let got = ref None in
  Probe_driver.submit_outcome d o (fun oc -> got := Some oc);
  Probe_driver.flush d;
  Option.get !got

let small_data total =
  Synthetic.generate (Rng.create 5) (Synthetic.config ~total ())

let requirements =
  Quality.requirements ~precision:0.9 ~recall:0.7 ~laxity:40.0

let run_engine ~seed ~probe data =
  Engine.run ~rng:(Rng.create seed) ~max_laxity:100.0 ~domains:1
    ~instance:Synthetic.instance ~probe ~requirements
    (Scan_pipeline.rows ~instance:Synthetic.instance data)

let fingerprint (r : Synthetic.obj Engine.result) =
  ( List.map
      (fun e -> (e.Operator.obj.Synthetic.id, e.Operator.precise))
      r.Engine.report.Operator.answer,
    r.Engine.report.Operator.guarantees,
    r.Engine.counts )

(* A single query through the broker must be bit-for-bit the direct
   driver path: same answer, same guarantees, same charges, for scalar
   and batched drivers alike. *)
let test_single_query_identity () =
  let data = small_data 400 in
  List.iter
    (fun batch_size ->
      let direct =
        run_engine ~seed:99
          ~probe:(Probe_driver.create_outcomes ~batch_size pure_resolve)
          data
      in
      let broker =
        Probe_broker.create ~key:obj_key (oracle ~batch:batch_size pure_resolve)
      in
      let brokered =
        run_engine ~seed:99 ~probe:(Probe_broker.client broker) data
      in
      checkb
        (Printf.sprintf "identical result at B=%d" batch_size)
        true
        (fingerprint direct = fingerprint brokered);
      (* and the broker charged exactly what the query's meter did *)
      let stats = Probe_broker.stats broker in
      checki
        (Printf.sprintf "charged = query probes at B=%d" batch_size)
        direct.Engine.counts.Cost_meter.probes stats.Probe_broker.charged;
      checki
        (Printf.sprintf "no rejections at B=%d" batch_size)
        0 stats.Probe_broker.rejected)
    [ 1; 4 ]

(* K queries over overlapping object sets charge exactly |union| backend
   probes, whatever the overlap pattern, and the stats identity holds. *)
let prop_dedup_charged_once =
  QCheck2.Test.make ~name:"overlapping queries charge exactly |union|"
    ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 6) (list_size (int_range 0 20) (int_range 0 30)))
    (fun key_lists ->
      let broker =
        Probe_broker.create ~key:Fun.id
          (oracle ~batch:3 (fun objs ->
               Array.map (fun k -> Probe_driver.Resolved k) objs))
      in
      List.iteri
        (fun i keys ->
          let d = Probe_broker.client ~tenant:(string_of_int i) broker in
          List.iter
            (fun k -> Probe_driver.submit_outcome d k (fun _ -> ()))
            keys;
          Probe_driver.flush d)
        key_lists;
      let union = List.sort_uniq compare (List.concat key_lists) in
      let total = List.fold_left (fun n l -> n + List.length l) 0 key_lists in
      let s = Probe_broker.stats broker in
      s.Probe_broker.charged = List.length union
      && s.Probe_broker.requests = total
      && s.Probe_broker.requests
         = s.Probe_broker.admitted + s.Probe_broker.coalesced
           + s.Probe_broker.fresh_hits + s.Probe_broker.rejected
      && s.Probe_broker.failed = 0)

(* The same dedup bound under real concurrency: domains flush
   overlapping key sets through their own clients simultaneously; the
   union is still charged exactly once and every waiter gets a correct
   outcome. *)
let test_concurrent_dedup () =
  let keys_of i = List.init 25 (fun j -> (5 * i) + j) in
  let broker =
    Probe_broker.create ~key:Fun.id
      (oracle ~batch:4 (fun objs ->
           (* a little real latency so flushes genuinely overlap *)
           Unix.sleepf 0.001;
           Array.map (fun k -> Probe_driver.Resolved (k * 7)) objs))
  in
  let worker i () =
    let d = Probe_broker.client ~tenant:(string_of_int i) broker in
    let results = ref [] in
    List.iter
      (fun k ->
        Probe_driver.submit_outcome d k (fun oc -> results := (k, oc) :: !results))
      (keys_of i);
    Probe_driver.flush d;
    !results
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  let all = List.concat_map Domain.join domains in
  List.iter
    (fun (k, oc) ->
      match oc with
      | Probe_driver.Resolved v -> checki "fanned-out outcome" (k * 7) v
      | Probe_driver.Shrunk _ | Probe_driver.Failed _ ->
          Alcotest.fail "unexpected failure")
    all;
  let union =
    List.sort_uniq compare (List.concat_map keys_of [ 0; 1; 2; 3 ])
  in
  let s = Probe_broker.stats broker in
  checki "concurrent union charged once" (List.length union)
    s.Probe_broker.charged;
  checki "every request accounted" (4 * 25) s.Probe_broker.requests;
  checki "nothing rejected" 0 s.Probe_broker.rejected;
  checkb "dedup actually happened" true
    (s.Probe_broker.coalesced + s.Probe_broker.fresh_hits > 0)

(* A batch of queries run as the tasks of one [Domain_pool.run], as a
   server's RUN runs them, is independent of scheduling (the test keeps
   the name of the [Engine.execute_many] wrapper that call replaced):
   the same queries on one domain, on several, and in reversed
   submission order all equal their solo runs and meet their
   requirements, and the shared broker charges strictly fewer backend
   probes than the solo runs paid in total.  Two inputs: four clients on
   a small workload, and the server scenario's eight clients on the
   standard workload at B = 8 over 1, 2, 4 and 8 domains. *)
let test_execute_many_deterministic () =
  let check ~label ~data ~requirements ~batch ~seeds ~domains_list =
    let n = Array.length seeds in
    let solo_runs =
      Array.map
        (fun seed ->
          Engine.run ~rng:(Rng.create seed) ~max_laxity:100.0 ~domains:1
            ~instance:Synthetic.instance
            ~probe:(Probe_driver.create_outcomes ~batch_size:batch pure_resolve)
            ~requirements
            (Scan_pipeline.rows ~instance:Synthetic.instance data))
        seeds
    in
    let solo = Array.map fingerprint solo_runs in
    let solo_probes =
      Array.fold_left
        (fun acc r -> acc + r.Engine.counts.Cost_meter.probes)
        0 solo_runs
    in
    let run ~domains ~order =
      let broker =
        Probe_broker.create ~key:obj_key (oracle ~batch pure_resolve)
      in
      let runs =
        Array.map
          (fun i ->
            let probe = Probe_broker.client ~tenant:(string_of_int i) broker in
            fun () ->
              Engine.run ~rng:(Rng.create seeds.(i)) ~max_laxity:100.0
                ~domains:1 ~instance:Synthetic.instance ~probe ~requirements
                (Scan_pipeline.rows ~instance:Synthetic.instance data))
          order
      in
      let results = Domain_pool.run ~lanes:domains runs in
      let tag what = Printf.sprintf "%s, domains=%d: %s" label domains what in
      let charged = (Probe_broker.stats broker).Probe_broker.charged in
      checkb
        (tag (Printf.sprintf "broker charged %d < solo total %d" charged
                solo_probes))
        true (charged < solo_probes);
      Array.iter
        (fun r ->
          checkb (tag "requirements met") true
            r.Engine.degradation.Engine.requirements_met)
        results;
      Array.map fingerprint results
    in
    List.iter
      (fun domains ->
        Array.iteri
          (fun i fp ->
            checkb
              (Printf.sprintf "%s query %d = solo (domains=%d)" label i domains)
              true (fp = solo.(i)))
          (run ~domains ~order:(Array.init n Fun.id)))
      domains_list;
    let domains = List.nth domains_list (List.length domains_list - 1) in
    Array.iteri
      (fun i fp ->
        checkb
          (Printf.sprintf "%s reversed query %d = solo" label i)
          true
          (fp = solo.(n - 1 - i)))
      (run ~domains ~order:(Array.init n (fun i -> n - 1 - i)))
  in
  check ~label:"small" ~data:(small_data 400) ~requirements ~batch:4
    ~seeds:[| 11; 12; 13; 14 |] ~domains_list:[ 1; 4 ];
  check ~label:"standard" ~data:(Standard_workload.data ())
    ~requirements:Standard_workload.requirements ~batch:8
    ~seeds:(Array.init 8 (fun i -> Standard_workload.engine_seed + i))
    ~domains_list:[ 1; 2; 4; 8 ]

(* Cross-query batch packing: while one dispatch is held open inside the
   backend, requests from other clients queue up; the next round merges
   them into one batch. *)
let test_cross_query_packing () =
  let gate = Atomic.make false in
  let entered = Atomic.make false in
  let calls = Atomic.make 0 in
  let resolve objs =
    if Atomic.fetch_and_add calls 1 = 0 then begin
      Atomic.set entered true;
      while not (Atomic.get gate) do
        Unix.sleepf 0.0005
      done
    end;
    Array.map (fun k -> Probe_driver.Resolved k) objs
  in
  let broker = Probe_broker.create ~key:Fun.id (oracle ~batch:4 resolve) in
  let await ?(what = "condition") p =
    let tries = ref 0 in
    while not (p ()) do
      incr tries;
      if !tries > 4000 then Alcotest.failf "timed out waiting for %s" what;
      Unix.sleepf 0.0005
    done
  in
  let a = Domain.spawn (fun () -> fetch_as ~tenant:"a" broker 1) in
  await ~what:"first dispatch to enter the backend" (fun () ->
      Atomic.get entered);
  let b = Domain.spawn (fun () -> fetch_as ~tenant:"b" broker 2) in
  let c = Domain.spawn (fun () -> fetch_as ~tenant:"c" broker 3) in
  await ~what:"two requests to queue behind the dispatch" (fun () ->
      Probe_broker.pending broker = 2);
  Atomic.set gate true;
  let oa = Domain.join a and ob = Domain.join b and oc = Domain.join c in
  (match (oa, ob, oc) with
  | Probe_driver.Resolved 1, Probe_driver.Resolved 2, Probe_driver.Resolved 3
    ->
      ()
  | _ -> Alcotest.fail "wrong outcomes");
  let s = Probe_broker.stats broker in
  checki "two rounds for three queries" 2 s.Probe_broker.batches;
  checki "backend called twice" 2 (Atomic.get calls);
  checki "three backend probes" 3 s.Probe_broker.charged

(* The same three clients over a broker with two round slots: the
   second client does not wait behind the first client's held round but
   drives one of its own, so the backend sees exactly two overlapping
   calls, and only the third client's request queues until a slot
   frees. *)
let test_two_rounds_in_flight () =
  let gate = Atomic.make false in
  let calls = Atomic.make 0 in
  let inside = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let resolve objs =
    let now = Atomic.fetch_and_add inside 1 + 1 in
    let rec raise_peak () =
      let p = Atomic.get peak in
      if now > p && not (Atomic.compare_and_set peak p now) then raise_peak ()
    in
    raise_peak ();
    if Atomic.fetch_and_add calls 1 < 2 then
      while not (Atomic.get gate) do
        Unix.sleepf 0.0005
      done;
    Atomic.decr inside;
    Array.map (fun k -> Probe_driver.Resolved k) objs
  in
  let broker =
    Probe_broker.create ~rounds:2 ~key:Fun.id (oracle ~batch:4 resolve)
  in
  checki "two round slots" 2 (Probe_broker.rounds broker);
  let await ?(what = "condition") p =
    let tries = ref 0 in
    while not (p ()) do
      incr tries;
      if !tries > 4000 then Alcotest.failf "timed out waiting for %s" what;
      Unix.sleepf 0.0005
    done
  in
  let a = Domain.spawn (fun () -> fetch_as ~tenant:"a" broker 1) in
  await ~what:"the first round to enter the backend" (fun () ->
      Atomic.get inside = 1);
  let b = Domain.spawn (fun () -> fetch_as ~tenant:"b" broker 2) in
  await ~what:"a second round to enter the backend alongside it" (fun () ->
      Atomic.get inside = 2);
  checki "nothing queued while both rounds are out" 0
    (Probe_broker.pending broker);
  let c = Domain.spawn (fun () -> fetch_as ~tenant:"c" broker 3) in
  await ~what:"the third request to queue" (fun () ->
      Probe_broker.pending broker = 1);
  checki "the third request waits for a slot" 2 (Atomic.get calls);
  Atomic.set gate true;
  let oa = Domain.join a and ob = Domain.join b and oc = Domain.join c in
  (match (oa, ob, oc) with
  | Probe_driver.Resolved 1, Probe_driver.Resolved 2, Probe_driver.Resolved 3
    ->
      ()
  | _ -> Alcotest.fail "wrong outcomes");
  let s = Probe_broker.stats broker in
  checki "two overlapping backend calls at most" 2 (Atomic.get peak);
  checki "three rounds for three queries" 3 s.Probe_broker.batches;
  checki "backend called three times" 3 (Atomic.get calls);
  checki "three backend probes" 3 s.Probe_broker.charged;
  checki "nothing left queued" 0 (Probe_broker.pending broker)

(* A round that ends in an exception — the resolver raising, or
   returning the wrong number of outcomes — fails its batch, re-raises
   in its dispatcher and still gives its slot back: after two such
   rounds a broker with one or two slots serves the next fetch.  Each
   fetch runs on a domain of its own, so a leaked slot fails the test
   instead of hanging it. *)
let test_raising_round_frees_its_slot () =
  let fetch_within ~rounds broker k =
    let finished = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          Fun.protect
            ~finally:(fun () -> Atomic.set finished true)
            (fun () ->
              match Probe_broker.fetch broker k with
              | oc -> Ok oc
              | exception e -> Error e))
    in
    let tries = ref 0 in
    while (not (Atomic.get finished)) && !tries < 4000 do
      incr tries;
      Unix.sleepf 0.0005
    done;
    if not (Atomic.get finished) then
      Alcotest.failf "rounds %d: fetch %d found no free round slot" rounds k;
    Domain.join d
  in
  List.iter
    (fun rounds ->
      let calls = Atomic.make 0 in
      let resolve objs =
        match Atomic.fetch_and_add calls 1 with
        | 0 -> failwith "backend down"
        | 1 -> [||]
        | _ -> Array.map (fun k -> Probe_driver.Resolved k) objs
      in
      let broker = Probe_broker.create ~rounds ~key:Fun.id (oracle resolve) in
      (match fetch_within ~rounds broker 1 with
      | Error (Failure msg) when msg = "backend down" -> ()
      | _ -> Alcotest.fail "the resolver's exception must reach the dispatcher");
      (match fetch_within ~rounds broker 2 with
      | Error (Invalid_argument msg)
        when msg = "Probe_broker: resolver changed the batch length" ->
          ()
      | _ -> Alcotest.fail "a wrong-length batch must be an error");
      (match fetch_within ~rounds broker 3 with
      | Ok (Probe_driver.Resolved 3) -> ()
      | _ -> Alcotest.fail "wrong outcome after two failed rounds");
      let s = Probe_broker.stats broker in
      checki "both failed requests settled" 2 s.Probe_broker.failed;
      checki "one request charged" 1 s.Probe_broker.charged)
    [ 1; 2 ]

(* Shared capacity: once the admitted budget is spent, new probe targets
   degrade to [Failed { attempts = 0 }] while fresh hits stay free. *)
let test_capacity_saturation () =
  let broker =
    Probe_broker.create ~capacity:2 ~key:Fun.id
      (oracle (fun objs -> Array.map (fun k -> Probe_driver.Resolved k) objs))
  in
  checkb "not saturated at start" false (Probe_broker.saturated broker);
  (match Probe_broker.fetch broker 1 with
  | Probe_driver.Resolved 1 -> ()
  | _ -> Alcotest.fail "first probe should resolve");
  (match Probe_broker.fetch broker 2 with
  | Probe_driver.Resolved 2 -> ()
  | _ -> Alcotest.fail "second probe should resolve");
  checkb "saturated after capacity" true (Probe_broker.saturated broker);
  (match Probe_broker.fetch broker 3 with
  | Probe_driver.Failed { attempts = 0 } -> ()
  | _ -> Alcotest.fail "over-capacity probe should degrade");
  (match Probe_broker.fetch broker 1 with
  | Probe_driver.Resolved 1 -> ()
  | _ -> Alcotest.fail "fresh hit must still succeed when saturated");
  let s = Probe_broker.stats broker in
  checki "rejected counted" 1 s.Probe_broker.rejected;
  checki "fresh hit counted" 1 s.Probe_broker.fresh_hits;
  checki "charged stops at capacity" 2 s.Probe_broker.charged

(* A query over a saturated broker still completes, degrading through
   the operator's guarantee-aware fallback instead of erroring. *)
let test_saturated_engine_run_degrades () =
  let data = small_data 400 in
  let broker =
    Probe_broker.create ~capacity:5 ~key:obj_key (oracle ~batch:4 pure_resolve)
  in
  let result = run_engine ~seed:99 ~probe:(Probe_broker.client broker) data in
  checkb "run degraded" true (Engine.degraded result);
  checkb "degraded probes happened" true
    (result.Engine.degradation.Engine.failed_probes > 0);
  checki "exactly the capacity was charged" 5
    (Probe_broker.stats broker).Probe_broker.charged;
  checkb "broker saturated" true (Probe_broker.saturated broker)

(* The freshness window: infinite = probe once, zero = no sharing at
   all, finite = a strict wall-clock window on the broker's clock. *)
let test_freshness_window () =
  let fetch_twice freshness =
    let broker =
      Probe_broker.create ~freshness ~key:Fun.id
        (oracle (fun objs -> Array.map (fun k -> Probe_driver.Resolved k) objs))
    in
    ignore (Probe_broker.fetch broker 7);
    ignore (Probe_broker.fetch broker 7);
    Probe_broker.stats broker
  in
  checki "infinite window: one charge" 1 (fetch_twice infinity).Probe_broker.charged;
  checki "zero window: every request charges" 2
    (fetch_twice 0.0).Probe_broker.charged;
  let now = ref 0.0 in
  let broker =
    Probe_broker.create
      ~clock:(fun () -> !now)
      ~freshness:10.0 ~key:Fun.id
      (oracle (fun objs -> Array.map (fun k -> Probe_driver.Resolved k) objs))
  in
  ignore (Probe_broker.fetch broker 7);
  now := 5.0;
  checkb "within the window" true (Probe_broker.is_fresh broker 7);
  ignore (Probe_broker.fetch broker 7);
  now := 10.0;
  (* the window is strict: age 10 is not < 10 *)
  checkb "window boundary is stale" false (Probe_broker.is_fresh broker 7);
  ignore (Probe_broker.fetch broker 7);
  let s = Probe_broker.stats broker in
  checki "re-probed at the boundary" 2 s.Probe_broker.charged;
  checki "one fresh hit inside the window" 1 s.Probe_broker.fresh_hits

(* Per-tenant quotas: one tenant exhausting its quota degrades only its
   own new probe targets. *)
let test_tenant_quota () =
  let broker =
    Probe_broker.create ~key:Fun.id
      (oracle (fun objs -> Array.map (fun k -> Probe_driver.Resolved k) objs))
  in
  ignore (Probe_broker.client ~tenant:"a" ~quota:2 broker);
  (match fetch_as ~tenant:"a" broker 1 with
  | Probe_driver.Resolved _ -> ()
  | _ -> Alcotest.fail "within quota");
  (match fetch_as ~tenant:"a" broker 2 with
  | Probe_driver.Resolved _ -> ()
  | _ -> Alcotest.fail "within quota");
  (match fetch_as ~tenant:"a" broker 3 with
  | Probe_driver.Failed { attempts = 0 } -> ()
  | _ -> Alcotest.fail "over quota must degrade");
  (match fetch_as ~tenant:"b" broker 3 with
  | Probe_driver.Resolved _ -> ()
  | _ -> Alcotest.fail "other tenants unaffected");
  (* a's fresh hit on b's probe is free, so it still succeeds *)
  (match fetch_as ~tenant:"a" broker 3 with
  | Probe_driver.Resolved _ -> ()
  | _ -> Alcotest.fail "fresh hits are free even over quota");
  let by_tenant = Probe_broker.tenant_stats broker in
  let a = List.assoc "a" by_tenant and b = List.assoc "b" by_tenant in
  checki "a admitted to quota" 2 a.Probe_broker.admitted;
  checki "a rejected beyond" 1 a.Probe_broker.rejected;
  checki "a served fresh" 1 a.Probe_broker.fresh_hits;
  checki "b admitted" 1 b.Probe_broker.admitted;
  checki "b rejected" 0 b.Probe_broker.rejected

(* An open circuit breaker refuses whole dispatch rounds: the backend is
   not touched and the refused requests degrade. *)
let test_breaker_refuses_rounds () =
  let calls = Atomic.make 0 in
  let breaker = Circuit_breaker.create () in
  let broker =
    Probe_broker.create ~breaker ~key:Fun.id
      (oracle (fun objs ->
           Atomic.incr calls;
           Array.map (fun _ -> Probe_driver.Failed { attempts = 1 }) objs))
  in
  (* Three failed rounds trip the breaker for two rounds. *)
  for k = 1 to 3 do
    match Probe_broker.fetch broker k with
    | Probe_driver.Failed { attempts = 1 } -> ()
    | _ -> Alcotest.fail "backend failure surfaces"
  done;
  checkb "breaker tripped" true (Circuit_breaker.state breaker = Open);
  (match Probe_broker.fetch broker 4 with
  | Probe_driver.Failed { attempts = 0 } -> ()
  | _ -> Alcotest.fail "refused round degrades with attempts = 0");
  checki "backend called per real round" 3 (Atomic.get calls);
  let s = Probe_broker.stats broker in
  checki "only the real rounds count a batch" 3 s.Probe_broker.batches;
  checki "nothing charged" 0 s.Probe_broker.charged;
  checki "every request failed" 4 s.Probe_broker.failed

(* The qaq.broker.* instruments mirror the broker's own statistics. *)
let test_broker_metrics () =
  let obs = Obs.create () in
  let broker =
    Probe_broker.create ~obs ~capacity:2 ~key:Fun.id
      (oracle ~batch:2 (fun objs ->
           Array.map (fun k -> Probe_driver.Resolved k) objs))
  in
  ignore (Probe_broker.fetch broker 1);
  ignore (Probe_broker.fetch broker 1);
  ignore (Probe_broker.fetch broker 2);
  ignore (Probe_broker.fetch broker 3);
  let s = Probe_broker.stats broker in
  let snapshot = Obs.snapshot obs in
  let count key = Metrics.count_of snapshot key in
  checki "requests mirrored" s.Probe_broker.requests
    (count Obs.Keys.broker_requests);
  checki "admitted mirrored" s.Probe_broker.admitted
    (count Obs.Keys.broker_admitted);
  checki "charged mirrored" s.Probe_broker.charged
    (count Obs.Keys.broker_charged);
  checki "fresh mirrored" s.Probe_broker.fresh_hits
    (count Obs.Keys.broker_fresh_hits);
  checki "rejected mirrored" s.Probe_broker.rejected
    (count Obs.Keys.broker_rejected);
  checki "batches mirrored" s.Probe_broker.batches
    (count Obs.Keys.broker_batches);
  match Metrics.dist_of snapshot Obs.Keys.broker_batch_fill with
  | Some d -> checki "one fill observation per batch" s.Probe_broker.batches
      d.Metrics.d_count
  | None -> Alcotest.fail "batch fill histogram missing"

(* {2 Tiered brokers} *)

(* Two toy backends over int keys: the proxy narrows (tagged +1000 so a
   cached shrunk outcome is recognisable), the oracle resolves (×7). *)
let tiered_toy () =
  Probe_broker.create ~key:Fun.id
    [|
      Probe_broker.backend ~batch:3 (fun objs ->
          Array.map (fun k -> Probe_driver.Shrunk (k + 1000)) objs);
      Probe_broker.backend ~batch:4 (fun objs ->
          Array.map (fun k -> Probe_driver.Resolved (k * 7)) objs);
    |]

(* K queries at mixed tiers charge exactly |union| per tier — where the
   union is computed under the freshness asymmetry: a resolved point
   satisfies any tier, a shrunk interval only its own. The per-tier
   stats identity holds and the whole-broker stats are the element-wise
   sums. *)
let prop_tier_dedup_charged_once =
  QCheck2.Test.make
    ~name:"mixed-tier queries charge exactly |union| per tier" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (pair (int_range 0 1) (list_size (int_range 0 15) (int_range 0 25))))
    (fun queries ->
      let broker = tiered_toy () in
      (* replay the freshness rules in plain code to predict charges *)
      let resolved = Hashtbl.create 16 and shrunk = Hashtbl.create 16 in
      let expected = [| 0; 0 |] in
      List.iter
        (fun (tier, keys) ->
          List.iter
            (fun k ->
              let free =
                Hashtbl.mem resolved k
                || (tier = 0 && Hashtbl.mem shrunk k)
              in
              if not free then begin
                expected.(tier) <- expected.(tier) + 1;
                if tier = 1 then Hashtbl.replace resolved k ()
                else Hashtbl.replace shrunk k ()
              end)
            (List.sort_uniq compare keys))
        queries;
      List.iteri
        (fun i (tier, keys) ->
          let d =
            Probe_broker.client ~tenant:(string_of_int i) ~tier broker
          in
          List.iter
            (fun k -> Probe_driver.submit_outcome d k (fun _ -> ()))
            keys;
          Probe_driver.flush d)
        queries;
      let bt = Probe_broker.by_tier broker in
      let whole = Probe_broker.stats broker in
      let identity (s : Probe_broker.stats) =
        s.Probe_broker.requests
        = s.Probe_broker.admitted + s.Probe_broker.coalesced
          + s.Probe_broker.fresh_hits + s.Probe_broker.rejected
      in
      let sum f = f bt.(0) + f bt.(1) in
      bt.(0).Probe_broker.charged = expected.(0)
      && bt.(1).Probe_broker.charged = expected.(1)
      && identity bt.(0) && identity bt.(1)
      && sum (fun s -> s.Probe_broker.requests) = whole.Probe_broker.requests
      && sum (fun s -> s.Probe_broker.charged) = whole.Probe_broker.charged
      && sum (fun s -> s.Probe_broker.fresh_hits)
         = whole.Probe_broker.fresh_hits
      && sum (fun s -> s.Probe_broker.batches) = whole.Probe_broker.batches
      && whole.Probe_broker.failed = 0 && whole.Probe_broker.rejected = 0)

(* The freshness asymmetry, both directions: an oracle-fresh point never
   re-pays the proxy, while a proxy-fresh interval still escalates and
   pays the oracle. *)
let test_tier_freshness_asymmetry () =
  let broker = tiered_toy () in
  (* oracle first: the cached point satisfies a later proxy request *)
  (match fetch_as ~tier:1 broker 5 with
  | Probe_driver.Resolved 35 -> ()
  | _ -> Alcotest.fail "oracle resolves");
  (match fetch_as ~tier:0 broker 5 with
  | Probe_driver.Resolved 35 -> ()
  | _ -> Alcotest.fail "oracle-fresh point must satisfy the proxy free");
  (* proxy first: the narrowed interval does NOT satisfy the oracle *)
  (match fetch_as ~tier:0 broker 6 with
  | Probe_driver.Shrunk 1006 -> ()
  | _ -> Alcotest.fail "proxy shrinks");
  (match fetch_as ~tier:1 broker 6 with
  | Probe_driver.Resolved 42 -> ()
  | _ -> Alcotest.fail "proxy-fresh must still escalate and pay the oracle");
  (* once the oracle answered, even the proxy serves the point *)
  (match fetch_as ~tier:0 broker 6 with
  | Probe_driver.Resolved 42 -> ()
  | _ -> Alcotest.fail "resolved point satisfies every tier");
  (* a shrunk entry does satisfy its own tier again *)
  (match fetch_as ~tier:0 broker 7 with
  | Probe_driver.Shrunk 1007 -> ()
  | _ -> Alcotest.fail "proxy shrinks 7");
  (match fetch_as ~tier:0 broker 7 with
  | Probe_driver.Shrunk 1007 -> ()
  | _ -> Alcotest.fail "shrunk entry serves its own tier");
  let bt = Probe_broker.by_tier broker in
  checki "proxy charged only for 6 and 7" 2 bt.(0).Probe_broker.charged;
  checki "oracle charged only for 5 and 6" 2 bt.(1).Probe_broker.charged;
  checki "proxy fresh hits" 3 bt.(0).Probe_broker.fresh_hits;
  checki "oracle never served free" 0 bt.(1).Probe_broker.fresh_hits;
  let whole = Probe_broker.stats broker in
  checki "tier charges sum to the whole"
    (bt.(0).Probe_broker.charged + bt.(1).Probe_broker.charged)
    whole.Probe_broker.charged;
  checki "tier fresh hits sum to the whole"
    (bt.(0).Probe_broker.fresh_hits + bt.(1).Probe_broker.fresh_hits)
    whole.Probe_broker.fresh_hits

(* Two domains hammering both tiers of the same broker concurrently:
   every waiter gets an outcome, the stats identity holds per tier, and
   the per-tier totals still sum to the whole-broker totals — with one
   round in flight at a time and with one per domain. *)
let tier_hammer ~rounds =
  let checki what = checki (Printf.sprintf "%s (rounds %d)" what rounds) in
  let checkb what = checkb (Printf.sprintf "%s (rounds %d)" what rounds) in
  let nkeys = 40 in
  let slow resolve objs =
    Unix.sleepf 0.0005;
    resolve objs
  in
  let broker =
    Probe_broker.create ~rounds ~key:Fun.id
      [|
        Probe_broker.backend ~batch:3
          (slow (fun objs ->
               Array.map (fun k -> Probe_driver.Shrunk (k + 1000)) objs));
        Probe_broker.backend ~batch:4
          (slow (fun objs ->
               Array.map (fun k -> Probe_driver.Resolved (k * 7)) objs));
      |]
  in
  (* key k goes to the proxy from one worker and to the oracle from the
     other, so every key is in flight at both tiers *)
  let worker i () =
    let proxy =
      Probe_broker.client ~tenant:(string_of_int i) ~tier:0 broker
    in
    let oracle =
      Probe_broker.client ~tenant:(string_of_int i) ~tier:1 broker
    in
    let got = ref 0 in
    for k = 0 to nkeys - 1 do
      let d = if k mod 2 = i then proxy else oracle in
      Probe_driver.submit_outcome d k (fun _ -> incr got)
    done;
    Probe_driver.flush proxy;
    Probe_driver.flush oracle;
    !got
  in
  let domains = List.init 2 (fun i -> Domain.spawn (worker i)) in
  let answered = List.fold_left (fun n d -> n + Domain.join d) 0 domains in
  checki "every waiter answered" (2 * nkeys) answered;
  let bt = Probe_broker.by_tier broker in
  Array.iteri
    (fun i (s : Probe_broker.stats) ->
      checkb
        (Printf.sprintf "tier %d stats identity" i)
        true
        (s.Probe_broker.requests
        = s.Probe_broker.admitted + s.Probe_broker.coalesced
          + s.Probe_broker.fresh_hits + s.Probe_broker.rejected);
      checkb
        (Printf.sprintf "tier %d charged within admitted" i)
        true
        (s.Probe_broker.charged + s.Probe_broker.failed
        <= s.Probe_broker.admitted))
    bt;
  (* each key is asked of the oracle by exactly one worker, so the
     oracle is charged the full union; the proxy may be undercut by
     oracle points that landed first *)
  checki "oracle charged the union" nkeys bt.(1).Probe_broker.charged;
  checkb "proxy charged at most the union" true
    (bt.(0).Probe_broker.charged <= nkeys);
  let whole = Probe_broker.stats broker in
  let sum f = f bt.(0) + f bt.(1) in
  checki "requests sum" (sum (fun s -> s.Probe_broker.requests))
    whole.Probe_broker.requests;
  checki "admitted sum" (sum (fun s -> s.Probe_broker.admitted))
    whole.Probe_broker.admitted;
  checki "charged sum" (sum (fun s -> s.Probe_broker.charged))
    whole.Probe_broker.charged;
  checki "batches sum" (sum (fun s -> s.Probe_broker.batches))
    whole.Probe_broker.batches;
  checki "nothing failed" 0 whole.Probe_broker.failed;
  checki "nothing rejected" 0 whole.Probe_broker.rejected

let test_tier_hammer_stats_identity () =
  tier_hammer ~rounds:1;
  tier_hammer ~rounds:2

(* Tasks of one lane over a broker whose backend waits with
   [Domain_pool.blocking]: while a task's round is in the backend, the
   lane runs the next task, which asks for the same objects and waits on
   that round.  The waiter must give the lane's token up, or the round's
   dispatcher could never take it back to settle the round. *)
let test_lane_waits_on_own_round () =
  List.iter
    (fun rounds ->
      let resolve objs =
        Domain_pool.blocking (fun () -> Unix.sleepf 0.005);
        Array.map (fun k -> Probe_driver.Resolved k) objs
      in
      let broker =
        Probe_broker.create ~rounds ~key:Fun.id (oracle ~batch:4 resolve)
      in
      let got =
        Test_domain_pool.within
          (Printf.sprintf "rounds %d: a lane waiting on its own round" rounds)
          (fun () ->
            Domain_pool.run ~lanes:1
              (Array.init 8 (fun i () ->
                   fetch_as
                     ~tenant:(string_of_int (i mod 2))
                     broker (i mod 3))))
      in
      Array.iteri
        (fun i oc ->
          match oc with
          | Probe_driver.Resolved k when k = i mod 3 -> ()
          | _ -> Alcotest.failf "rounds %d: task %d got a wrong outcome" rounds i)
        got;
      checki
        (Printf.sprintf "rounds %d: each object charged once" rounds)
        3 (Probe_broker.stats broker).Probe_broker.charged)
    [ 1; 2; 16 ]

(* A lend and retake inside a raising round: the resolver gives the
   lane up while it "waits", then raises.  Every request is still
   classified exactly once, the raising batch settles as failed, and
   the next fetch finds a free slot. *)
let test_lane_raising_round_identity () =
  let calls = Atomic.make 0 in
  let resolve objs =
    Domain_pool.blocking (fun () -> Unix.sleepf 0.005);
    if Atomic.fetch_and_add calls 1 = 0 then failwith "backend down";
    Array.map (fun k -> Probe_driver.Resolved k) objs
  in
  let broker =
    Probe_broker.create ~rounds:2 ~key:Fun.id (oracle ~batch:2 resolve)
  in
  let got =
    Test_domain_pool.within "lanes over a raising round" (fun () ->
        Domain_pool.run ~lanes:2
          (Array.init 8 (fun i () ->
               match
                 fetch_as ~tenant:(string_of_int (i mod 3)) broker
                   (i mod 5)
               with
               | oc -> Ok oc
               | exception Failure msg -> Error msg)))
  in
  let raised =
    Array.fold_left
      (fun n r ->
        match r with
        | Error "backend down" -> n + 1
        | Error msg -> Alcotest.failf "unexpected failure %S" msg
        | Ok _ -> n)
      0 got
  in
  checki "one dispatcher saw the resolver raise" 1 raised;
  let s = Probe_broker.stats broker in
  checkb "requests = admitted + coalesced + fresh + rejected" true
    (s.Probe_broker.requests
    = s.Probe_broker.admitted + s.Probe_broker.coalesced
      + s.Probe_broker.fresh_hits + s.Probe_broker.rejected);
  checkb "every admitted request settled" true
    (s.Probe_broker.charged + s.Probe_broker.failed = s.Probe_broker.admitted);
  checkb "the raising batch failed" true (s.Probe_broker.failed >= 1);
  match Test_domain_pool.within "a fetch after the raise" (fun () ->
            Probe_broker.fetch broker 99)
  with
  | Probe_driver.Resolved 99 -> ()
  | _ -> Alcotest.fail "the slot of the raising round must be free again"

(* ---- tickets: split-phase rounds ---------------------------------- *)

(* A backend whose rounds answer [Later]: [await] runs [on_await] with
   the round's objects, then answers every object [Resolved k]. *)
let later_backend ~batch on_await =
  {
    Probe_broker.bk_send =
      (fun objs ->
        Probe_driver.Later
          (fun () ->
            on_await objs;
            Array.map (fun k -> Probe_driver.Resolved k) objs));
    bk_batch = batch;
    bk_fallible = false;
  }

let spin ~what p =
  let tries = ref 0 in
  while not (p ()) do
    incr tries;
    if !tries > 4000 then Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.0005
  done

let identity (s : Probe_broker.stats) =
  s.requests = s.admitted + s.coalesced + s.fresh_hits + s.rejected

(* A client holds two tickets, each with a round out.  Another domain's
   request joins the older round and claims it, and the backend holds
   that round until the newer one is awaited.  Waiting on its older
   ticket, the owner completes its newer round first — a round is
   completed by whichever client waits on the broker — and its older
   ticket settles once the other domain's await returns. *)
let test_round_completes_while_owner_waits () =
  let entered_old = Atomic.make false and opened = Atomic.make false in
  let log = Mutex.create () and order = ref [] in
  let on_await objs =
    if Array.mem 1 objs then begin
      Atomic.set entered_old true;
      spin ~what:"the newer round to open the gate" (fun () -> Atomic.get opened)
    end;
    Mutex.protect log (fun () -> order := objs.(0) :: !order);
    if Array.mem 3 objs then Atomic.set opened true
  in
  let broker =
    Probe_broker.create ~rounds:2 ~freshness:0.0 ~key:Fun.id
      [| later_backend ~batch:2 on_await |]
  in
  let a = Probe_broker.client ~tenant:"a" broker in
  checki "a client keeps rounds tickets in flight" 2 (Probe_driver.ahead a);
  let got = Array.make 5 None in
  let submit k =
    Probe_driver.submit a k (fun oc -> got.(k) <- Some oc)
  in
  ignore (submit 1);
  let older = Option.get (submit 2) in
  ignore (submit 3);
  let newer = Option.get (submit 4) in
  checkb "both tickets wait on the backend" false
    (Probe_driver.ready older || Probe_driver.ready newer);
  let b = Domain.spawn (fun () -> fetch_as ~tenant:"b" broker 1) in
  spin ~what:"the other domain to claim the older round" (fun () ->
      Atomic.get entered_old);
  Probe_driver.complete older;
  checkb "the older ticket settled" true (got.(1) <> None && got.(2) <> None);
  checkb "the newer ticket's callbacks wait for it" true (got.(3) = None);
  Probe_driver.complete newer;
  (match Domain.join b with
  | Probe_driver.Resolved 1 -> ()
  | _ -> Alcotest.fail "the coalesced request got the wrong outcome");
  Array.iteri
    (fun k oc ->
      if k > 0 then
        match oc with
        | Some (Probe_driver.Resolved k') when k' = k -> ()
        | _ -> Alcotest.failf "object %d got the wrong outcome" k)
    got;
  checkb "the newer round completed before the older one" true
    (List.rev !order = [ 3; 1 ]);
  let s = Probe_broker.stats broker in
  checkb "stats identity" true (identity s);
  checki "two rounds" 2 s.batches;
  checki "four probes charged" 4 s.charged;
  checki "one coalesced request" 1 s.coalesced

(* Two queries' tickets, with an object in common, settle in either
   order: waiting on the later ticket first completes the earlier round
   on the way.  Outcomes, charges and rounds are the same either
   way. *)
let test_tickets_settle_in_either_order () =
  let run first =
    let awaited = ref 0 in
    let broker =
      Probe_broker.create ~rounds:2 ~freshness:0.0 ~key:Fun.id
        [| later_backend ~batch:3 (fun _ -> incr awaited) |]
    in
    let outcomes = Hashtbl.create 8 in
    let ticket tenant keys =
      let d = Probe_broker.client ~tenant broker in
      let tk = ref None in
      List.iter
        (fun k ->
          tk :=
            Probe_driver.submit d k (fun oc ->
                Hashtbl.replace outcomes (tenant, k) oc))
        keys;
      Option.get !tk
    in
    let ta = ticket "a" [ 1; 2; 3 ] and tb = ticket "b" [ 3; 4; 5 ] in
    (match first with
    | `A ->
        Probe_driver.complete ta;
        Probe_driver.complete tb
    | `B ->
        Probe_driver.complete tb;
        checki "b's wait completed a's round on the way" 2 !awaited;
        Probe_driver.complete ta);
    let s = Probe_broker.stats broker in
    checkb "stats identity" true (identity s);
    ( List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []),
      s.charged, s.coalesced, s.batches, !awaited )
  in
  let a_first = run `A and b_first = run `B in
  checkb "either order, the same settlement" true (a_first = b_first);
  let outcomes, charged, coalesced, batches, awaited = a_first in
  checki "six outcomes" 6 (List.length outcomes);
  checki "five objects charged" 5 charged;
  checki "the shared object coalesced" 1 coalesced;
  checki "two rounds" 2 batches;
  checki "each round awaited once" 2 awaited

(* Four domains, each holding up to [rounds] tickets of its own over a
   broker whose rounds answer [Later]: every waiter is answered, and
   the stats identity holds in every concurrent read and at the end. *)
let test_ticket_hammer () =
  let rounds = 3 and nkeys = 60 in
  let broker =
    Probe_broker.create ~rounds ~freshness:0.0 ~key:Fun.id
      [| later_backend ~batch:4 (fun _ -> Unix.sleepf 0.0002) |]
  in
  let done_ = Atomic.make 0 in
  let worker i () =
    let d = Probe_broker.client ~tenant:(string_of_int (i mod 2)) broker in
    let held = Queue.create () and got = ref 0 in
    for j = 0 to nkeys - 1 do
      (* overlapping key ranges, so requests coalesce across domains *)
      let k = (j + (i * 15)) mod 90 in
      (match Probe_driver.submit d k (fun _ -> incr got) with
      | Some tk -> Queue.push tk held
      | None -> ());
      if Queue.length held > Probe_driver.ahead d then
        Probe_driver.complete (Queue.pop held)
    done;
    Queue.iter Probe_driver.complete held;
    Probe_driver.flush d;
    Atomic.incr done_;
    !got
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  let torn = ref 0 in
  while Atomic.get done_ < 4 do
    if not (identity (Probe_broker.stats broker)) then incr torn;
    Unix.sleepf 0.0002
  done;
  let answered = List.fold_left (fun n d -> n + Domain.join d) 0 domains in
  checki "no read saw the identity broken" 0 !torn;
  checki "every waiter answered" (4 * nkeys) answered;
  let s = Probe_broker.stats broker in
  checkb "stats identity" true (identity s);
  checki "everything admitted was charged" s.admitted s.charged;
  checki "nothing failed" 0 s.failed;
  checki "nothing left queued" 0 (Probe_broker.pending broker)

let test_validation () =
  let resolve objs =
    Array.map (fun k -> Probe_driver.Resolved k) objs
  in
  let backends = oracle resolve in
  Alcotest.check_raises "no backends"
    (Invalid_argument "Probe_broker.create: no backends") (fun () ->
      ignore (Probe_broker.create ~key:Fun.id [||]));
  Alcotest.check_raises "bad batch size"
    (Invalid_argument "Probe_broker.create: bk_batch < 1") (fun () ->
      ignore (Probe_broker.create ~key:Fun.id (oracle ~batch:0 resolve)));
  Alcotest.check_raises "bad freshness"
    (Invalid_argument "Probe_broker.create: freshness must be non-negative")
    (fun () ->
      ignore (Probe_broker.create ~freshness:(-1.0) ~key:Fun.id backends));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Probe_broker.create: capacity < 0") (fun () ->
      ignore (Probe_broker.create ~capacity:(-1) ~key:Fun.id backends));
  Alcotest.check_raises "no round slot"
    (Invalid_argument "Probe_broker.create: rounds < 1") (fun () ->
      ignore (Probe_broker.create ~rounds:0 ~key:Fun.id backends));
  let broker = Probe_broker.create ~key:Fun.id backends in
  checki "one round slot by default" 1 (Probe_broker.rounds broker);
  Alcotest.check_raises "bad quota"
    (Invalid_argument "Probe_broker.client: quota < 0") (fun () ->
      ignore (Probe_broker.client ~quota:(-1) broker))

let suite =
  [
    ("single query is bit-for-bit direct", `Quick, test_single_query_identity);
    QCheck_alcotest.to_alcotest prop_dedup_charged_once;
    ("concurrent dedup charges the union once", `Quick, test_concurrent_dedup);
    ("execute_many is scheduling-independent", `Quick,
     test_execute_many_deterministic);
    ("cross-query batch packing", `Quick, test_cross_query_packing);
    ("two rounds in flight overlap in the backend", `Quick,
     test_two_rounds_in_flight);
    ("a lane task waits on its own lane's round", `Quick,
     test_lane_waits_on_own_round);
    ("a lend inside a raising round keeps the identity", `Quick,
     test_lane_raising_round_identity);
    ("a raising round frees its slot", `Quick,
     test_raising_round_frees_its_slot);
    ("capacity saturation degrades", `Quick, test_capacity_saturation);
    ("saturated engine run degrades gracefully", `Quick,
     test_saturated_engine_run_degrades);
    ("freshness window semantics", `Quick, test_freshness_window);
    ("tenant quota isolates tenants", `Quick, test_tenant_quota);
    ("open breaker refuses rounds", `Quick, test_breaker_refuses_rounds);
    ("broker metrics mirror stats", `Quick, test_broker_metrics);
    QCheck_alcotest.to_alcotest prop_tier_dedup_charged_once;
    ("tier freshness asymmetry", `Quick, test_tier_freshness_asymmetry);
    ("two-domain tier hammer keeps stats identity", `Quick,
     test_tier_hammer_stats_identity);
    ("a round completes while its owner waits on an older ticket", `Quick,
     test_round_completes_while_owner_waits);
    ("two queries' tickets settle in either order", `Quick,
     test_tickets_settle_in_either_order);
    ("four-domain ticket hammer keeps the stats identity", `Quick,
     test_ticket_hammer);
    ("validation", `Quick, test_validation);
  ]
