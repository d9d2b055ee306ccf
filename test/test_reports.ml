(* Smoke tests for the experiment report generators and a few
   cross-module failure paths not covered elsewhere. *)

let find_sweep id = Option.get (Exp_config.find_sweep id)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let line_count s =
  List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))

let test_opt_table_structure () =
  let sweep = find_sweep "selectivity" in
  let rendered = Text_table.render (Exp_report.opt_table sweep) in
  (* Title + 3 rules + header + one row per setting. *)
  checki "line count" (5 + List.length sweep.settings) (line_count rendered);
  checkb "has paper column" true (contains "paper W/|T|" rendered);
  List.iter
    (fun (s : Exp_config.setting) ->
      checkb ("row " ^ s.label) true (contains s.label rendered))
    sweep.settings

let test_trial_table_structure () =
  let sweep = find_sweep "selectivity" in
  let rng = Rng.create 8 in
  let rendered =
    Text_table.render (Exp_report.trial_table ~rng ~repetitions:1 sweep)
  in
  checki "line count" (5 + List.length sweep.settings) (line_count rendered);
  List.iter
    (fun name -> checkb name true (contains name rendered))
    [ "QaQ"; "Stingy"; "Greedy" ]

let test_quality_table_all_zero_for_enforced () =
  let rng = Rng.create 9 in
  let sweep =
    { (find_sweep "selectivity") with
      settings = [ { Exp_config.default with label = "one" } ] }
  in
  let rendered =
    Text_table.render (Exp_report.quality_table ~rng ~repetitions:2 sweep)
  in
  checkb "rendered" true (contains "max p-viol" rendered)

(* A probe source that exhausts its retries mid-query: the run must
   complete anyway — each failed object degrades to a guarantee-aware
   write decision and the report carries an honest degradation summary —
   while the shared meter still reflects the work that was done. *)
let test_probe_failure_degrades () =
  let rng = Rng.create 10 in
  let data =
    Synthetic.generate rng (Synthetic.config ~total:500 ~f_y:0.0 ~f_m:1.0 ())
  in
  let source =
    Probe_source.create ~failure_rate:0.9 ~max_retries:0 ~rng:(Rng.create 11)
      Synthetic.probe
  in
  let meter = Cost_meter.create () in
  let report =
    Operator.run ~rng ~meter ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_source.driver source))
      ~policy:Policy.greedy
      ~requirements:(Quality.requirements ~precision:1.0 ~recall:1.0 ~laxity:0.0)
      (Operator.source_of_array data)
  in
  let d = report.Operator.degraded in
  checkb "probes failed permanently" true (d.Operator.failed_probes > 0);
  checkb "attempts recorded" true
    (d.Operator.failed_attempts >= d.Operator.failed_probes);
  checki "every failure fell back" d.Operator.failed_probes
    (d.Operator.degraded_forwards + d.Operator.degraded_ignores);
  checkb "before-snapshot captured" true (d.Operator.guarantees_before <> None);
  checkb "partial work metered" true ((Cost_meter.counts meter).reads > 0)

let test_jittered_latency_in_range () =
  let rng = Rng.create 12 in
  let source =
    Probe_source.create
      ~latency:(Probe_source.Jittered { base = 10.0; jitter = 5.0 })
      ~rng Fun.id
  in
  for i = 1 to 50 do
    ignore (Probe_source.probe_batch_outcomes source [| i |])
  done;
  let s = Probe_source.stats source in
  checkb "latency within bounds" true
    (s.simulated_latency >= 500.0 && s.simulated_latency <= 750.0)

(* A band join run without collection counts the answer it would have
   collected. *)
let test_join_streaming () =
  let rng = Rng.create 13 in
  let gen () =
    Interval_data.uniform_intervals rng ~n:25
      ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
  in
  let left = gen () and right = gen () in
  let run collect =
    Band_join.run ~rng:(Rng.create 14) ~collect
      ~requirements:(Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:10.0)
      ~epsilon:5.0 ~left ~right ()
  in
  let report = run false and collected = run true in
  checkb "nothing collected" true (report.answer = []);
  checki "size matches the collected answer"
    (List.length collected.answer) report.answer_size;
  checkb "same run otherwise" true ({ collected with answer = [] } = report)

let suite =
  [
    ("opt table structure", `Slow, test_opt_table_structure);
    ("trial table structure", `Slow, test_trial_table_structure);
    ("quality table renders", `Slow, test_quality_table_all_zero_for_enforced);
    ("probe failure degrades", `Quick, test_probe_failure_degrades);
    ("jittered latency in range", `Quick, test_jittered_latency_in_range);
    ("join streaming parity", `Quick, test_join_streaming);
  ]
