(* Moving-object tracking: window queries over uncertainty rectangles.

   A dispatch system tracks 8 000 vehicles.  Positions are dead-reckoned:
   each vehicle is known only up to a square that grows with the time
   since its last report (§1.1's replication barrier).  "Which vehicles
   are inside the downtown zone right now?" is a QaQ whose probes contact
   vehicles over the radio.

   Run with:  dune exec examples/moving_objects.exe *)

let () =
  let rng = Rng.create 1609 in
  let area = Rect.make (Interval.make 0.0 100.0) (Interval.make 0.0 100.0) in
  let fleet =
    Moving_object.random_fleet rng ~n:8000 ~area ~max_radius:6.0
  in
  let downtown =
    Rect.make (Interval.make 35.0 65.0) (Interval.make 40.0 70.0)
  in
  let truly_inside = Moving_object.exact_size downtown fleet in
  Format.printf "fleet: %d vehicles; truly inside the window: %d@."
    (Array.length fleet) truly_inside;

  let run ~label ~requirements ~policy =
    let report =
      Operator.run ~rng
        ~instance:(Moving_object.instance downtown)
        ~cascade:(Cascade.of_driver (Probe_driver.scalar Moving_object.probe))
        ~policy ~requirements
        (Operator.source_of_array fleet)
    in
    let answer_in =
      List.length
        (List.filter
           (fun e -> Moving_object.in_exact downtown e.Operator.obj)
           report.answer)
    in
    Format.printf
      "%-28s answer=%4d probes=%4d W=%7.0f  p^G=%.2f r^G=%.2f  (true hits in answer: %d)@."
      label report.answer_size report.counts.probes
      (Operator.cost Cost_model.paper report)
      report.guarantees.precision report.guarantees.recall answer_in
  in

  (* Dispatcher view: tolerate fuzzy positions (laxity = full diagonal),
     some false positives, half the fleet coverage. *)
  run ~label:"dispatch (loose)"
    ~requirements:(Quality.requirements ~precision:0.8 ~recall:0.5 ~laxity:20.0)
    ~policy:Policy.stingy;

  (* Billing view: every reported vehicle must really be in the zone
     (precision 1), positions pinned to within a 1-unit diagonal. *)
  run ~label:"billing (exact membership)"
    ~requirements:(Quality.requirements ~precision:1.0 ~recall:0.5 ~laxity:1.0)
    ~policy:(Policy.qaq (Policy.params ~s3:1.0 ~s5:0.6 ~p_py:1.0 ~p_fm:0.0));

  (* Emergency sweep: nobody may be missed. *)
  run ~label:"emergency (perfect recall)"
    ~requirements:(Quality.requirements ~precision:0.5 ~recall:1.0 ~laxity:20.0)
    ~policy:Policy.greedy
