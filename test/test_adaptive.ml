(* Tests for the adaptive re-planning policy. *)

(* A region-model spec under the uniform density over [0,1] x [0,L]. *)
let uniform_spec ~f_y ~f_m ~max_laxity =
  Region_model.spec ~f_y ~f_m ~max_laxity ~density:(Density.uniform ~max_laxity)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let requirements = Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:50.0

(* An observer whose trace counts the plan's re-solves: one
   [Trace.Replan] event each. *)
let replan_counter () =
  let sink, events = Trace.collector () in
  ( Obs.create ~trace:sink (),
    fun () ->
      List.length
        (List.filter (function Trace.Replan _ -> true | _ -> false) (events ()))
  )

let run_with_adaptive ~seed ~data ~replan_every ~max_replans =
  let rng = Rng.create seed in
  let obs, replans = replan_counter () in
  let adaptive =
    Adaptive.create ~obs ~rng:(Rng.split rng) ~total:(Array.length data)
      ~max_laxity:100.0 ~requirements ~replan_every ~max_replans ()
  in
  let report =
    Operator.run ~rng ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
      ~policy:(Adaptive.policy adaptive) ~requirements
      (Operator.source_of_array data)
  in
  (replans, report)

let test_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad total" (Invalid_argument "Adaptive.create: total <= 0")
    (fun () ->
      ignore (Adaptive.create ~rng ~total:0 ~max_laxity:100.0 ~requirements ()));
  Alcotest.check_raises "bad period"
    (Invalid_argument "Adaptive.create: replan_every < 1") (fun () ->
      ignore
        (Adaptive.create ~rng ~total:10 ~max_laxity:100.0 ~requirements
           ~replan_every:0 ()))

let test_replans_happen_and_are_bounded () =
  let data =
    Synthetic.generate (Rng.create 5)
      (Synthetic.config ~total:5000 ~f_y:0.2 ~f_m:0.2 ())
  in
  let replans, report = run_with_adaptive ~seed:6 ~data ~replan_every:500 ~max_replans:3 in
  checkb "some replans" true (replans () >= 1);
  checkb "bounded" true (replans () <= 3);
  checkb "still sound" true (Quality.meets report.guarantees requirements)

let test_soundness_unaffected () =
  (* Adaptivity must never break guarantees, whatever it converges to. *)
  List.iter
    (fun seed ->
      let data =
        Synthetic.generate (Rng.create seed)
          (Synthetic.config ~total:2000 ~f_y:0.3 ~f_m:0.3 ())
      in
      let _, report = run_with_adaptive ~seed ~data ~replan_every:300 ~max_replans:5 in
      checkb "sound" true (Quality.meets report.guarantees requirements);
      let answer_in_exact =
        List.length
          (List.filter (fun e -> Synthetic.in_exact e.Operator.obj) report.answer)
      in
      let actual_p =
        Quality.Diagnostics.precision ~answer_size:report.answer_size
          ~answer_in_exact
      in
      checkb "actual precision dominates" true
        (actual_p >= report.guarantees.precision -. 1e-9))
    [ 1; 2; 3; 4; 5 ]

let test_adapts_to_misestimated_workload () =
  (* Static QaQ solved with a badly wrong prior (f_m far too low) versus
     the adaptive policy starting from the same wrong prior.  Averaged
     over several datasets the adaptive run should not lose, and it
     should improve on the static one for most seeds. *)
  let wrong_prior =
    let spec = uniform_spec ~f_y:0.05 ~f_m:0.02 ~max_laxity:100.0 in
    (Solver.solve (Solver.problem ~total:10000 ~spec ~requirements ())).params
  in
  let cost_static, cost_adaptive =
    List.fold_left
      (fun (s_acc, a_acc) seed ->
        let data =
          Synthetic.generate (Rng.create seed)
            (Synthetic.config ~total:10000 ~f_y:0.2 ~f_m:0.4 ())
        in
        let rng = Rng.create (seed + 100) in
        let static_report =
          Operator.run ~rng ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
            ~policy:(Policy.qaq wrong_prior) ~requirements
            (Operator.source_of_array data)
        in
        let adaptive =
          Adaptive.create ~rng:(Rng.split rng) ~total:(Array.length data)
            ~max_laxity:100.0 ~requirements ~replan_every:500 ~max_replans:6
            ~initial:wrong_prior ()
        in
        let adaptive_report =
          Operator.run ~rng ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
            ~policy:(Adaptive.policy adaptive) ~requirements
            (Operator.source_of_array data)
        in
        ( s_acc +. Operator.cost Cost_model.paper static_report,
          a_acc +. Operator.cost Cost_model.paper adaptive_report ))
      (0.0, 0.0) [ 11; 12; 13; 14; 15 ]
  in
  checkb
    (Printf.sprintf "adaptive %.0f <= static %.0f" cost_adaptive cost_static)
    true
    (cost_adaptive <= cost_static *. 1.02)

let test_bulk_jump_replans_once () =
  (* Regression for the replan stampede: when reads jump past several
     window boundaries at once (bulk parallel chunks), the policy must
     re-solve exactly once and advance [next_replan_at] past the jump —
     not once per skipped window on essentially identical histograms. *)
  let obs, replans = replan_counter () in
  let adaptive =
    Adaptive.create ~obs ~rng:(Rng.create 31) ~total:10_000 ~max_laxity:100.0
      ~requirements ~replan_every:100 ~max_replans:50 ()
  in
  let decide =
    match Adaptive.policy adaptive with
    | Policy.Custom f -> f
    | _ -> Alcotest.fail "adaptive policy is a Custom policy"
  in
  let counters = Counters.create ~total:10_000 in
  let step () =
    ignore
      (decide ~requirements ~counters ~verdict:Tvl.Yes ~laxity:10.0
         ~success:0.5)
  in
  (* Jump reads in bulk across nine window boundaries: 0 -> 949. *)
  for _ = 1 to 949 do Counters.saw_no counters done;
  step ();
  checki "exactly one re-solve for the whole jump" 1 (replans ());
  (* Still inside the same window: no further re-solve. *)
  step ();
  checki "no second re-solve before the next boundary" 1 (replans ());
  (* Crossing the next boundary (reads 949 -> 1000) re-solves once. *)
  for _ = 1 to 51 do Counters.saw_no counters done;
  step ();
  checki "one re-solve at the next boundary" 2 (replans ());
  step ();
  checki "and only one" 2 (replans ())

let test_current_params_evolve () =
  let data =
    Synthetic.generate (Rng.create 21)
      (Synthetic.config ~total:4000 ~f_y:0.1 ~f_m:0.5 ())
  in
  let rng = Rng.create 22 in
  let initial = Policy.params ~s3:1.0 ~s5:1.0 ~p_py:0.0 ~p_fm:0.0 in
  let obs, replans = replan_counter () in
  let adaptive =
    Adaptive.create ~obs ~rng:(Rng.split rng) ~total:4000 ~max_laxity:100.0
      ~requirements ~replan_every:400 ~max_replans:4 ~initial ()
  in
  checkb "starts at initial" true (Adaptive.current_params adaptive = initial);
  let _ =
    Operator.run ~rng ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
      ~policy:(Adaptive.policy adaptive) ~requirements
      (Operator.source_of_array data)
  in
  checkb "params moved" true (Adaptive.current_params adaptive <> initial);
  checkb "replans counted" true (replans () >= 1)

let suite =
  [
    ("validation", `Quick, test_validation);
    ("replans happen and are bounded", `Quick, test_replans_happen_and_are_bounded);
    ("soundness unaffected", `Quick, test_soundness_unaffected);
    ("adapts to misestimated workload", `Slow, test_adapts_to_misestimated_workload);
    ("bulk read jump re-solves once", `Quick, test_bulk_jump_replans_once);
    ("params evolve", `Quick, test_current_params_evolve);
  ]
