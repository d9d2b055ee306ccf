(* ECG pattern screening: the paper's perfect-precision scenario (§2.1).

   An archive holds 2 000 long time series ("ECGs"), of which the query
   site keeps only PAA sketches (16 segments for 512 points — a 91%
   space saving).  A study wants candidate patients whose series lies
   within Euclidean distance ε of a known arrhythmia motif.  Candidates
   will be enrolled in a trial, so precision must be perfect — but we do
   not need every matching patient in the world (modest recall).

   Run with:  dune exec examples/ecg_patterns.exe *)

let () =
  let rng = Rng.create 571 in
  let length = 512 and segments = 16 in
  let motif =
    Time_series.of_array
      (Array.init 64 (fun i ->
           let t = float_of_int i /. 63.0 in
           (* A spike-and-dip shape. *)
           (10.0 *. exp (-200.0 *. ((t -. 0.3) ** 2.0)))
           -. (6.0 *. exp (-150.0 *. ((t -. 0.6) ** 2.0)))))
  in
  (* The reference pattern: a clean heartbeat carrying the motif. *)
  let baseline rng =
    Time_series.random_walk rng ~length ~start:0.0 ~step_stddev:0.4
  in
  let pattern =
    Time_series.with_motif rng ~base:(baseline (Rng.create 1)) ~motif ~at:200
      ~amplitude:1.0
  in
  (* Archive: 10% match the pattern closely (same beat, small per-point
     noise), 10% are borderline (noisier copies near the ε boundary), the
     rest are unrelated rhythms. *)
  let noisy_copy stddev =
    Time_series.map (fun x -> x +. Rng.gaussian rng ~mean:0.0 ~stddev) pattern
  in
  let items =
    Array.init 2000 (fun id ->
        let u = Rng.uniform rng in
        let series =
          if u < 0.1 then noisy_copy (Rng.uniform_in rng 0.3 0.8)
          else if u < 0.2 then noisy_copy (Rng.uniform_in rng 1.0 2.0)
          else baseline rng
        in
        Ts_query.make_item ~id ~segments series)
  in
  let sample_ratio = Paa.compression_ratio (Array.get items 0).Ts_query.sketch in
  Format.printf "archive: %d series of %d points, sketches at %.0f%% of size@."
    (Array.length items) length (100.0 *. sample_ratio);

  let query = Ts_query.query ~pattern ~epsilon:30.0 in
  let exact = Ts_query.exact_size query items in
  Format.printf "ground truth: %d series within distance %.0f@." exact
    query.epsilon;

  (* Perfect precision, recall 0.3, laxity bound on the distance
     uncertainty of reported candidates. *)
  let requirements =
    Quality.requirements ~precision:1.0 ~recall:0.3 ~laxity:20.0
  in
  let meter = Cost_meter.create () in
  let report =
    Operator.run ~rng ~meter
      ~instance:(Ts_query.instance query)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Ts_query.probe))
      ~policy:
        (Policy.qaq (Policy.params ~s3:0.85 ~s5:0.85 ~p_py:1.0 ~p_fm:0.0))
      ~requirements
      (Operator.source_of_array items)
  in
  Format.printf "answer: %d candidates, guarantees: %a@." report.answer_size
    Quality.pp_guarantees report.guarantees;
  Format.printf "work: %a@." Cost_meter.pp_counts report.counts;

  (* Perfect precision means every candidate truly matches. *)
  let true_matches =
    List.length
      (List.filter (fun e -> Ts_query.in_exact query e.Operator.obj) report.answer)
  in
  Format.printf "verified: %d/%d candidates truly match (precision 1.0)@."
    true_matches report.answer_size;
  assert (true_matches = report.answer_size);

  (* Compare with the naive plan: probe every MAYBE (fetch the series). *)
  let naive_probes =
    Array.fold_left
      (fun acc item ->
        match (Ts_query.instance query).classify item with
        | Tvl.Maybe -> acc + 1
        | Tvl.Yes | Tvl.No -> acc)
      0 items
  in
  Format.printf
    "naive exact evaluation would probe %d series; QaQ probed %d (%.1fx fewer)@."
    naive_probes report.counts.probes
    (float_of_int naive_probes /. float_of_int (max 1 report.counts.probes))
