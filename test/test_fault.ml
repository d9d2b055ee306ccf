(* Tests for the fault-injection library: the seeded fault plan, its
   keyed draw, and the round-based circuit breaker.  The injector's
   wiring into probe rounds is tested with Probe_source (test_probe),
   the breaker's with Probe_broker (test_broker). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Fault_plan ------------------------------------------------------ *)

(* The injector of a live plan. *)
let injector ?obs ~site spec = Option.get (Fault_plan.injector_opt ?obs ~site spec)

(* Fault decisions an injector built with [obs] has fired. *)
let injected obs = Metrics.count_of (Obs.snapshot obs) Obs.Keys.fault_injected

let test_null_plan () =
  checkb "no injector for a null plan" true
    (Fault_plan.injector_opt ~site:"x" Fault_plan.none = None);
  checkb "seed alone keeps a plan null" true
    (Fault_plan.injector_opt ~site:"x" (Fault_plan.make ~seed:99 ()) = None);
  checkb "live plan builds an injector" true
    (Fault_plan.injector_opt ~site:"x"
       (Fault_plan.make ~transient_rate:0.1 ())
    <> None)

let invalid f =
  match ignore (f ()) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_make_validation () =
  invalid (fun () -> Fault_plan.make ~transient_rate:1.5 ());
  invalid (fun () -> Fault_plan.make ~permanent_rate:(-0.1) ());
  invalid (fun () -> Fault_plan.make ~transient_rate:Float.nan ())

(* The injector's stream is a pure function of (seed, site): equal
   arguments replay identically, in lockstep, forever.  Each element
   draws its permanence, then two attempts (both fail when it is
   permanent). *)
let draw_sequence inj n =
  List.init n (fun _ ->
      let e = Fault_plan.fresh_element inj in
      let first = Fault_plan.attempt inj e in
      (first, Fault_plan.attempt inj e))

let prop_injector_deterministic =
  QCheck2.Test.make ~name:"injector stream is a pure function of (seed, site)"
    ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let spec =
        Fault_plan.make ~seed ~transient_rate:0.4 ~permanent_rate:0.1 ()
      in
      let obs_a = Obs.create () and obs_b = Obs.create () in
      let a = injector ~obs:obs_a ~site:"probe_source" spec in
      let b = injector ~obs:obs_b ~site:"probe_source" spec in
      draw_sequence a 100 = draw_sequence b 100
      && injected obs_a = injected obs_b)

let test_sites_diverge () =
  let spec = Fault_plan.make ~seed:7 ~transient_rate:0.5 () in
  let a = injector ~site:"probe_source" spec in
  let b = injector ~site:"sensor_net" spec in
  checkb "different sites draw different streams" false
    (draw_sequence a 200 = draw_sequence b 200)

(* The keyed draw is a pure function of (seed, site, key): asking keys
   in any order gives the same decisions, the failed share follows the
   rate, and two sites of one seed fail different keys. *)
let test_keyed_draw () =
  let n = 10_000 in
  let spec = Fault_plan.make ~seed:7 ~permanent_rate:0.2 () in
  let decide site keys =
    let fails = Fault_plan.permanent spec ~site in
    let got = Array.make n false in
    Array.iter (fun k -> got.(k) <- fails k) keys;
    got
  in
  let forward = Array.init n Fun.id in
  let reversed = Array.init n (fun i -> n - 1 - i) in
  let shuffled = Array.copy forward in
  Rng.shuffle (Rng.create 3) shuffled;
  let a = decide "server-backend.oracle" forward in
  checkb "reversed order, same decisions" true
    (a = decide "server-backend.oracle" reversed);
  checkb "shuffled order, same decisions" true
    (a = decide "server-backend.oracle" shuffled);
  let failed = Array.fold_left (fun c b -> if b then c + 1 else c) 0 a in
  let share = float_of_int failed /. float_of_int n in
  checkb
    (Printf.sprintf "failed share %.4f within 0.2 +- 0.02" share)
    true
    (Float.abs (share -. 0.2) <= 0.02);
  checkb "two sites fail different keys" false
    (a = decide "server-backend.proxy" forward);
  let all rate =
    Fault_plan.permanent (Fault_plan.make ~permanent_rate:rate ())
  in
  checkb "rate 0 fails nothing" true
    (Array.for_all (fun k -> not (all 0.0 ~site:"s" k)) forward);
  checkb "rate 1 fails everything" true
    (Array.for_all (fun k -> all 1.0 ~site:"s" k) forward)

let test_permanent_element () =
  let inj = injector ~site:"t" (Fault_plan.make ~permanent_rate:1.0 ()) in
  let e = Fault_plan.fresh_element inj in
  for _ = 0 to 20 do
    checkb "permanent fails every attempt" true (Fault_plan.attempt inj e)
  done;
  (* With no permanent rate no element fails every attempt. *)
  let inj0 = injector ~site:"t" (Fault_plan.make ~transient_rate:0.5 ()) in
  let e0 = Fault_plan.fresh_element inj0 in
  checkb "no permanence without a rate" true
    (List.exists not (List.init 20 (fun _ -> Fault_plan.attempt inj0 e0)))

let test_injected_counter_reaches_metrics () =
  let obs = Obs.create () in
  let inj = injector ~obs ~site:"t" (Fault_plan.make ~transient_rate:1.0 ()) in
  let e = Fault_plan.fresh_element inj in
  for _ = 0 to 4 do
    ignore (Fault_plan.attempt inj e)
  done;
  checki "qaq.fault.injected mirrors the injector" 5
    (injected obs)

(* --- Circuit_breaker ------------------------------------------------- *)

let test_breaker_trip_threshold () =
  let b = Circuit_breaker.create () in
  Circuit_breaker.record_failure b ~round:0;
  Circuit_breaker.record_failure b ~round:1;
  checkb "two failures stay closed" true (Circuit_breaker.state b = Closed);
  Circuit_breaker.record_failure b ~round:2;
  checkb "third failure trips" true (Circuit_breaker.state b = Open);
  checkb "open refuses" false (Circuit_breaker.allow b ~round:3)

let test_breaker_backoff_schedule () =
  let b = Circuit_breaker.create () in
  for round = 0 to 2 do
    Circuit_breaker.record_failure b ~round
  done;
  (* Tripped at round 2 with the base window of 2: rounds 3 refused,
     round 4 is the recovery probe. *)
  checkb "round 3 refused" false (Circuit_breaker.allow b ~round:3);
  checkb "round 4 allowed" true (Circuit_breaker.allow b ~round:4);
  checkb "recovery probe is half-open" true
    (Circuit_breaker.state b = Half_open);
  (* Failed recovery re-trips with a doubled window: 4 rounds, so the
     next probe is at round 8; then 8 rounds to round 16. *)
  Circuit_breaker.record_failure b ~round:4;
  checkb "re-tripped" true (Circuit_breaker.state b = Open);
  checkb "round 7 refused" false (Circuit_breaker.allow b ~round:7);
  checkb "round 8 allowed" true (Circuit_breaker.allow b ~round:8);
  Circuit_breaker.record_failure b ~round:8;
  checkb "round 15 refused" false (Circuit_breaker.allow b ~round:15);
  checkb "round 16 allowed" true (Circuit_breaker.allow b ~round:16);
  (* A successful recovery closes the breaker and resets the schedule. *)
  Circuit_breaker.record_success b ~round:16;
  checkb "closed again" true (Circuit_breaker.state b = Closed);
  for round = 17 to 19 do
    Circuit_breaker.record_failure b ~round
  done;
  checkb "fresh trip uses the base window: round 20 refused" false
    (Circuit_breaker.allow b ~round:20);
  checkb "round 21 allowed" true (Circuit_breaker.allow b ~round:21)

let test_breaker_backoff_cap () =
  let b = Circuit_breaker.create () in
  let fail_recovery_at round =
    checkb "recovery allowed" true (Circuit_breaker.allow b ~round);
    Circuit_breaker.record_failure b ~round
  in
  for round = 0 to 2 do
    Circuit_breaker.record_failure b ~round
  done;
  (* Windows 2 -> 4 -> 8 -> 16 -> 32 -> 64, then capped at 64. *)
  List.iter fail_recovery_at [ 4; 8; 16; 32; 64; 128 ];
  checkb "next window is the cap: round 191 refused" false
    (Circuit_breaker.allow b ~round:191);
  checkb "round 192 allowed" true (Circuit_breaker.allow b ~round:192)

let test_breaker_interleaved_success_resets () =
  let b = Circuit_breaker.create () in
  Circuit_breaker.record_failure b ~round:0;
  Circuit_breaker.record_failure b ~round:1;
  Circuit_breaker.record_success b ~round:2;
  Circuit_breaker.record_failure b ~round:3;
  Circuit_breaker.record_failure b ~round:4;
  checkb "streak broken, still closed" true (Circuit_breaker.state b = Closed);
  checkb "never tripped: the next round runs" true (Circuit_breaker.allow b ~round:5)

let test_breaker_state_gauge () =
  let obs = Obs.create () in
  let b = Circuit_breaker.create ~obs () in
  let gauge () =
    match Metrics.get (Obs.snapshot obs) Obs.Keys.fault_breaker_state with
    | Some (Metrics.Level l) -> int_of_float l
    | _ -> Alcotest.fail "breaker gauge missing"
  in
  checki "starts closed" 0 (gauge ());
  for round = 0 to 2 do
    Circuit_breaker.record_failure b ~round
  done;
  checki "open is 2" 2 (gauge ());
  ignore (Circuit_breaker.allow b ~round:4);
  checki "half-open is 1" 1 (gauge ());
  Circuit_breaker.record_success b ~round:4;
  checki "closed again is 0" 0 (gauge ());
  (* The completed open window lands in the outage histogram. *)
  match Metrics.dist_of (Obs.snapshot obs) Obs.Keys.fault_outage_rounds with
  | Some d -> checki "outage window observed" 1 d.Metrics.d_count
  | None -> Alcotest.fail "outage histogram missing"

let prop_breaker_never_trips_without_failure =
  QCheck2.Test.make ~name:"all-success round sequences never trip" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 3))
    (fun gaps ->
      let b = Circuit_breaker.create () in
      let round = ref 0 in
      List.for_all
        (fun gap ->
          round := !round + gap;
          let allowed = Circuit_breaker.allow b ~round:!round in
          Circuit_breaker.record_success b ~round:!round;
          allowed
          && Circuit_breaker.state b = Closed)
        gaps)

let suite =
  [
    ("null plan", `Quick, test_null_plan);
    ("plan validation", `Quick, test_make_validation);
    ("sites diverge", `Quick, test_sites_diverge);
    ("permanent elements", `Quick, test_permanent_element);
    ("keyed draw is a pure function of its key", `Quick, test_keyed_draw);
    ("injected counter", `Quick, test_injected_counter_reaches_metrics);
    ("breaker trip threshold", `Quick, test_breaker_trip_threshold);
    ("breaker backoff schedule", `Quick, test_breaker_backoff_schedule);
    ("breaker backoff cap", `Quick, test_breaker_backoff_cap);
    ("breaker success resets streak", `Quick,
     test_breaker_interleaved_success_resets);
    ("breaker state gauge", `Quick, test_breaker_state_gauge);
    QCheck_alcotest.to_alcotest prop_injector_deterministic;
    QCheck_alcotest.to_alcotest prop_breaker_never_trips_without_failure;
  ]
