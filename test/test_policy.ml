(* Tests for decision policies and the (s, l)-plane regions. *)

let req ?(p = 0.9) ?(r = 0.5) ?(l = 50.0) () =
  Quality.requirements ~precision:p ~recall:r ~laxity:l

let action =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Decision.Forward -> "forward"
      | Decision.Probe -> "probe"
      | Decision.Ignore -> "ignore"))
    Decision.equal_action
let actions = Alcotest.(list action)

let prefer ?(params = Policy.stingy_params) ?(seed = 1) ?(requirements = req ())
    ~verdict ~laxity ~success () =
  let counters = Counters.create ~total:100 in
  Policy.preference (Policy.Region params) ~rng:(Rng.create seed) ~requirements
    ~counters ~verdict ~laxity ~success

let test_params_validation () =
  Alcotest.check_raises "s3 out of range"
    (Invalid_argument "Policy.params: s3 outside [0, 1]") (fun () ->
      ignore (Policy.params ~s3:1.5 ~s5:1.0 ~p_py:0.0 ~p_fm:0.0));
  Alcotest.check_raises "negative p_fm"
    (Invalid_argument "Policy.params: p_fm outside [0, 1]") (fun () ->
      ignore (Policy.params ~s3:1.0 ~s5:1.0 ~p_py:0.0 ~p_fm:(-0.1)))

let test_baseline_params () =
  let s = Policy.stingy_params in
  Alcotest.(check (float 0.0)) "stingy s3" 1.0 s.s3;
  Alcotest.(check (float 0.0)) "stingy p_py" 0.0 s.p_py;
  let g = Policy.greedy_params in
  Alcotest.(check (float 0.0)) "greedy s3" 0.0 g.s3;
  Alcotest.(check (float 0.0)) "greedy s5" 1.0 g.s5;
  Alcotest.(check (float 0.0)) "greedy p_fm" 1.0 g.p_fm

let test_region7_forwards () =
  Alcotest.check actions "YES below bound"
    [ Decision.Forward; Decision.Probe ]
    (prefer ~verdict:Tvl.Yes ~laxity:10.0 ~success:1.0 ())

let test_region6_randomised () =
  (* p_py = 1: always probe; p_py = 0: always ignore-first. *)
  let p1 = Policy.params ~s3:1.0 ~s5:1.0 ~p_py:1.0 ~p_fm:0.0 in
  Alcotest.check actions "p_py=1 probes" [ Decision.Probe ]
    (prefer ~params:p1 ~verdict:Tvl.Yes ~laxity:90.0 ~success:1.0 ());
  Alcotest.check actions "p_py=0 ignores"
    [ Decision.Ignore; Decision.Probe ]
    (prefer ~verdict:Tvl.Yes ~laxity:90.0 ~success:1.0 ())

let test_maybe_regions () =
  let p = Policy.params ~s3:0.7 ~s5:0.4 ~p_py:0.0 ~p_fm:1.0 in
  (* Region 3: high laxity, s above s3 -> probe. *)
  Alcotest.check actions "region 3" [ Decision.Probe ]
    (prefer ~params:p ~verdict:Tvl.Maybe ~laxity:90.0 ~success:0.8 ());
  (* Region 2: high laxity, s below s3 -> ignore (probe fallback). *)
  Alcotest.check actions "region 2" [ Decision.Ignore; Decision.Probe ]
    (prefer ~params:p ~verdict:Tvl.Maybe ~laxity:90.0 ~success:0.6 ());
  (* Region 5: low laxity, s above s5 -> probe. *)
  Alcotest.check actions "region 5" [ Decision.Probe ]
    (prefer ~params:p ~verdict:Tvl.Maybe ~laxity:10.0 ~success:0.5 ());
  (* Region 4 with p_fm = 1 -> forward. *)
  Alcotest.check actions "region 4 forward" [ Decision.Forward; Decision.Probe ]
    (prefer ~params:p ~verdict:Tvl.Maybe ~laxity:10.0 ~success:0.3 ());
  (* Region 4 with p_fm = 0 -> ignore, forward, probe. *)
  Alcotest.check actions "region 4 ignore"
    [ Decision.Ignore; Decision.Forward; Decision.Probe ]
    (prefer ~verdict:Tvl.Maybe ~laxity:10.0 ~success:0.3 ())

let test_no_rejected () =
  Alcotest.check_raises "NO never reaches the policy"
    (Invalid_argument "Policy.preference: NO objects never reach the policy")
    (fun () -> ignore (prefer ~verdict:Tvl.No ~laxity:1.0 ~success:0.0 ()))

let test_custom_policy () =
  let policy =
    Policy.Custom
      (fun ~requirements:_ ~counters:_ ~verdict:_ ~laxity:_ ~success:_ ->
        [ Decision.Probe ])
  in
  let counters = Counters.create ~total:10 in
  Alcotest.check actions "custom passthrough" [ Decision.Probe ]
    (Policy.preference policy ~rng:(Rng.create 1) ~requirements:(req ())
       ~counters ~verdict:Tvl.Maybe ~laxity:1.0 ~success:0.5)

let test_region_of () =
  let params = Policy.params ~s3:0.7 ~s5:0.4 ~p_py:0.5 ~p_fm:0.5 in
  let region ~verdict ~laxity ~success =
    Policy.region_of ~params ~laxity_bound:50.0 ~verdict ~laxity ~success
  in
  Alcotest.(check int) "NO" 1 (region ~verdict:Tvl.No ~laxity:0.0 ~success:0.0);
  Alcotest.(check int) "YES high" 6 (region ~verdict:Tvl.Yes ~laxity:60.0 ~success:1.0);
  Alcotest.(check int) "YES low" 7 (region ~verdict:Tvl.Yes ~laxity:40.0 ~success:1.0);
  Alcotest.(check int) "MAYBE high ignored" 2
    (region ~verdict:Tvl.Maybe ~laxity:60.0 ~success:0.5);
  Alcotest.(check int) "MAYBE high probed" 3
    (region ~verdict:Tvl.Maybe ~laxity:60.0 ~success:0.9);
  Alcotest.(check int) "MAYBE low forward band" 4
    (region ~verdict:Tvl.Maybe ~laxity:40.0 ~success:0.2);
  Alcotest.(check int) "MAYBE low probed" 5
    (region ~verdict:Tvl.Maybe ~laxity:40.0 ~success:0.9)

let test_ambiguity () =
  Alcotest.(check (float 1e-12)) "certain yes" 1.0 (Policy.ambiguity ~success:1.0);
  Alcotest.(check (float 1e-12)) "certain no" 1.0 (Policy.ambiguity ~success:0.0);
  Alcotest.(check (float 1e-12)) "most ambiguous" 0.0 (Policy.ambiguity ~success:0.5);
  Alcotest.(check (float 1e-12)) "intermediate" 0.5 (Policy.ambiguity ~success:0.75)

(* The randomised choices respect their probabilities. *)
let test_randomised_rates () =
  let p = Policy.params ~s3:1.0 ~s5:1.0 ~p_py:0.3 ~p_fm:0.0 in
  let rng = Rng.create 55 in
  let counters = Counters.create ~total:1000 in
  let probes = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    match
      Policy.preference (Policy.Region p) ~rng ~requirements:(req ()) ~counters
        ~verdict:Tvl.Yes ~laxity:90.0 ~success:1.0
    with
    | Decision.Probe :: _ -> incr probes
    | _ -> ()
  done;
  let rate = float_of_int !probes /. float_of_int n in
  Alcotest.(check bool) "p_py respected" true (Float.abs (rate -. 0.3) < 0.02)

let suite =
  [
    ("params validation", `Quick, test_params_validation);
    ("baseline parameters", `Quick, test_baseline_params);
    ("region 7 forwards", `Quick, test_region7_forwards);
    ("region 6 randomised", `Quick, test_region6_randomised);
    ("maybe regions", `Quick, test_maybe_regions);
    ("NO rejected", `Quick, test_no_rejected);
    ("custom policy", `Quick, test_custom_policy);
    ("region_of mapping", `Quick, test_region_of);
    ("ambiguity metric", `Quick, test_ambiguity);
    ("randomised rates", `Quick, test_randomised_rates);
  ]
