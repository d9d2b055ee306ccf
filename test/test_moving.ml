(* Tests for the moving-object substrate. *)

let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let area = Rect.make (Interval.make 0.0 100.0) (Interval.make 0.0 100.0)
let window = Rect.make (Interval.make 20.0 60.0) (Interval.make 20.0 60.0)

let test_make_validation () =
  Alcotest.check_raises "actual outside bound"
    (Invalid_argument "Moving_object.make: actual position outside the bound")
    (fun () ->
      ignore
        (Moving_object.make ~id:0 ~reported:{ Rect.x = 0.0; y = 0.0 }
           ~radius:1.0
           ~actual:{ Rect.x = 5.0; y = 0.0 }))

let test_fleet_invariants () =
  let fleet =
    Moving_object.random_fleet (Rng.create 4) ~n:500 ~area ~max_radius:8.0
  in
  Array.iter
    (fun (o : Moving_object.t) ->
      checkb "actual inside bound" true (Rect.contains o.bound o.actual))
    fleet

let test_instance_soundness () =
  let fleet =
    Moving_object.random_fleet (Rng.create 5) ~n:1000 ~area ~max_radius:10.0
  in
  let instance = Moving_object.instance window in
  Array.iter
    (fun o ->
      match instance.classify o with
      | Tvl.Yes -> checkb "yes truly inside" true (Moving_object.in_exact window o)
      | Tvl.No -> checkb "no truly outside" false (Moving_object.in_exact window o)
      | Tvl.Maybe ->
          let s = instance.success o in
          checkb "maybe has fractional success" true (s >= 0.0 && s <= 1.0))
    fleet

let test_probe_resolves () =
  let fleet =
    Moving_object.random_fleet (Rng.create 6) ~n:50 ~area ~max_radius:10.0
  in
  let instance = Moving_object.instance window in
  Array.iter
    (fun o ->
      let p = Moving_object.probe o in
      checkf 0.0 "laxity zero" 0.0 (instance.laxity p);
      checkb "definite" true (Tvl.is_definite (instance.classify p));
      checkb "verdict matches truth" true
        (Tvl.equal (instance.classify p)
           (Tvl.of_bool (Moving_object.in_exact window o))))
    fleet

let test_end_to_end_window_query () =
  let rng = Rng.create 7 in
  let fleet = Moving_object.random_fleet rng ~n:4000 ~area ~max_radius:6.0 in
  let requirements = Quality.requirements ~precision:0.9 ~recall:0.7 ~laxity:5.0 in
  let report =
    Operator.run ~rng ~instance:(Moving_object.instance window)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Moving_object.probe))
      ~policy:Policy.stingy
      ~requirements
      (Operator.source_of_array fleet)
  in
  checkb "meets" true (Quality.meets report.guarantees requirements);
  let answer_in =
    List.length
      (List.filter (fun e -> Moving_object.in_exact window e.Operator.obj) report.answer)
  in
  let actual_p =
    Quality.Diagnostics.precision ~answer_size:report.answer_size
      ~answer_in_exact:answer_in
  in
  let actual_r =
    Quality.Diagnostics.recall
      ~exact_size:(Moving_object.exact_size window fleet)
      ~answer_in_exact:answer_in
  in
  checkb "actual precision dominates" true (actual_p >= report.guarantees.precision -. 1e-9);
  checkb "actual recall dominates" true (actual_r >= report.guarantees.recall -. 1e-9)

let suite =
  [
    ("constructor validation", `Quick, test_make_validation);
    ("fleet invariants", `Quick, test_fleet_invariants);
    ("instance soundness", `Quick, test_instance_soundness);
    ("probe resolves", `Quick, test_probe_resolves);
    ("end-to-end window query", `Quick, test_end_to_end_window_query);
  ]
