(* Quickstart: evaluate a Quality-Aware selection over interval data.

   A table of 10 000 records holds interval approximations of hidden
   precise values (think: cached sensor readings, compressed samples).
   We ask for the records with value >= 700, requiring precision >= 0.9,
   recall >= 0.8 and answer laxity <= 25 — and let the QaQ operator
   figure out the cheapest mix of forwarding, probing and ignoring.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  let rng = Rng.create 2004 in

  (* 1. Data: hidden truths in [0, 1000], interval beliefs up to 80 wide. *)
  let records =
    Interval_data.uniform_intervals rng ~n:10000
      ~value_range:(Interval.make 0.0 1000.0) ~max_width:80.0
  in

  (* 2. The query and its quality requirements. *)
  let predicate = Predicate.ge 700.0 in
  let requirements =
    Quality.requirements ~precision:0.9 ~recall:0.8 ~laxity:25.0
  in

  (* 3. Tune the decision parameters from a 1% sample (paper §4.2). *)
  let sample = Selectivity.bernoulli_sample rng ~fraction:0.01 records in
  let estimate =
    Selectivity.estimate ~instance:(Interval_data.instance predicate) sample
  in
  let solution =
    Planner.solve ~total:(Array.length records) ~f_y:estimate.f_y
      ~f_m:estimate.f_m ~density:(Density.of_estimate estimate)
      ~max_laxity:estimate.max_laxity ~requirements ()
  in
  Format.printf "optimizer: %a@." Solver.pp_evaluation
    (Lazy.force solution.evaluation);

  (* 4. Evaluate.  The answer is streamed; we also collect it. *)
  let meter = Cost_meter.create () in
  let report =
    Operator.run ~rng ~meter
      ~instance:(Interval_data.instance predicate)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Interval_data.probe))
      ~policy:(Policy.qaq solution.params)
      ~requirements
      (Operator.source_of_array records)
  in

  (* 5. Inspect the result. *)
  Format.printf "answer: %d records (%d probed to precise values)@."
    report.answer_size
    (List.length (List.filter (fun e -> e.Operator.precise) report.answer));
  Format.printf "guarantees: %a  (requirements: %a)@." Quality.pp_guarantees
    report.guarantees Quality.pp_requirements requirements;
  Format.printf "work: %a@." Cost_meter.pp_counts report.counts;
  Format.printf "cost W = %.0f units (probe = 100x read/write), W/|T| = %.2f@."
    (Operator.cost Cost_model.paper report)
    (Operator.normalized_cost Cost_model.paper ~total:(Array.length records)
       report);

  (* 6. Because this is synthetic data we can check the truth (Eqs. 3-4):
        the guarantees are honest lower bounds. *)
  let in_exact e = Interval_data.in_exact predicate e.Operator.obj in
  let answer_in_exact = List.length (List.filter in_exact report.answer) in
  let actual_precision =
    Quality.Diagnostics.precision ~answer_size:report.answer_size
      ~answer_in_exact
  in
  let actual_recall =
    Quality.Diagnostics.recall
      ~exact_size:(Interval_data.exact_size predicate records)
      ~answer_in_exact
  in
  Format.printf "ground truth: precision %.3f >= %.3f, recall %.3f >= %.3f@."
    actual_precision report.guarantees.precision actual_recall
    report.guarantees.recall;
  assert (actual_precision >= report.guarantees.precision -. 1e-9);
  assert (actual_recall >= report.guarantees.recall -. 1e-9)
