(* Benchmark harness: regenerates every table of the paper's §5
   (paper-vs-measured), runs the ablation studies from DESIGN.md §5,
   finishes with Bechamel micro-benchmarks (one Test.make per paper
   table, plus core-operation benches), and holds the three wall-clock
   gates.  The deterministic gates live in the test suite (dune runtest)
   and end-to-end performance in bench/ledger.

   Usage:
     dune exec bench/main.exe                 # tables, ablations, micro
     dune exec bench/main.exe -- tables       # only reproduction tables
     dune exec bench/main.exe -- ablations    # only ablations
     dune exec bench/main.exe -- batch        # only the batch-size sweep
     dune exec bench/main.exe -- micro        # only Bechamel benches
     dune exec bench/main.exe -- columnar     # row vs columnar scan
                                              # throughput (never-probe
                                              # workload, 15 alternating
                                              # pairs at domains=1, then
                                              # domains 4/8); exits 1 if
                                              # the layouts disagree or
                                              # the median pair has
                                              # columnar slower than row
     dune exec bench/main.exe -- server       # broker concurrency sweep
                                              # (8 clients, 10 ms backend,
                                              # domains 1/2/4, then 5
                                              # alternating serial/8-domain
                                              # pairs); exits 1 unless
                                              # answers match the solo
                                              # runs, the broker charges
                                              # fewer probes, and the
                                              # median pair runs 8 domains
                                              # >= 1.3x faster than serial
     dune exec bench/main.exe -- telemetry    # the server scenario at 8
                                              # domains, 7 alternating
                                              # bare/full-telemetry pairs;
                                              # exits 1 unless answers
                                              # match and the median
                                              # overhead is <= 5%

   Setting QAQ_DOMAINS=N runs the trial tables (and any engine work that
   does not pin a domain count) over an N-lane pool; results are
   bit-for-bit independent of it. *)

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Paper tables (T1–T10)                                               *)
(* ------------------------------------------------------------------ *)

let reproduction_tables () =
  section "Reproduction: section 5.1 optimal problem solutions (T1-T5)";
  List.iter
    (fun sweep ->
      Text_table.print (Exp_report.opt_table sweep);
      print_newline ())
    Exp_config.all_sweeps;
  section "Reproduction: section 5.2 QaQ trial runs (T6-T10)";
  (* Each sweep is self-contained (its own rng), so the five tables can
     be computed on separate domains (QAQ_DOMAINS=N) and printed in
     order afterwards; the tables themselves are identical either way. *)
  List.iter
    (fun table ->
      Text_table.print table;
      print_newline ())
    (Exp_runner.parallel_configs
       (List.map
          (fun (sweep : Exp_config.sweep) () ->
            Exp_report.trial_table ~rng:(Rng.create 1984) ~repetitions:5 sweep)
          Exp_config.all_sweeps));
  section "Soundness: worst observed requirement violations";
  let rng = Rng.create 515 in
  Text_table.print
    (Exp_report.quality_table ~rng ~repetitions:5 Exp_config.varying_precision);
  print_newline ();
  List.iter
    (fun (id, note) -> Printf.printf "note [%s]: %s\n" id note)
    Paper_tables.known_discrepancies

(* ------------------------------------------------------------------ *)
(* Ablation 1: uniform vs histogram density on a skewed workload       *)
(* ------------------------------------------------------------------ *)

let ablation_density () =
  section "Ablation: optimizer density assumption (uniform vs histogram)";
  print_endline
    "Workload with laxity ~ L*u^3 (mass near 0): the uniform assumption\n\
     misjudges how many objects satisfy the laxity bound; the histogram\n\
     density of section 4.2 adapts.  Costs are W/|T|, 5 repetitions.";
  let setting = Exp_config.default in
  let table =
    Text_table.create ~title:"density ablation"
      ~header:[ "workload"; "QaQ uniform"; "QaQ histogram"; "Stingy" ]
  in
  let rng = Rng.create 77 in
  let cell outcomes =
    let a = Exp_runner.aggregate setting outcomes in
    Printf.sprintf "%.2f±%.2f" a.mean_cost a.ci95
  in
  List.iter
    (fun (label, laxity_exponent) ->
      let datasets =
        List.init 5 (fun _ ->
            Synthetic.generate_skewed rng
              (Exp_config.workload setting)
              ~laxity_exponent ~success_exponent:1.0)
      in
      let run density kind =
        List.map
          (fun data ->
            Exp_runner.trial_run ~rng ~density ~sample_fraction:0.05 ~setting
              ~data kind)
          datasets
      in
      Text_table.add_row table
        [ label;
          cell (run `Uniform Exp_runner.Qaq);
          cell (run `Histogram Exp_runner.Qaq);
          cell (run `Uniform Exp_runner.Stingy) ])
    [ ("uniform (exp 1)", 1.0); ("skewed (exp 3)", 3.0); ("skewed (exp 6)", 6.0) ];
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Ablation 2: success-directed vs ambiguity-directed probing          *)
(* ------------------------------------------------------------------ *)

(* The metric of Cheng et al. [5] (paper §6) scores objects by
   |s-0.5|/0.5.  Probing the most ambiguous MAYBEs first is the natural
   policy under that metric; the paper's QaQ probes the highest-s MAYBEs
   instead, because those build the recall guarantee fastest.  We give
   both the same expected probe budget and compare. *)
let ambiguity_policy (qaq : Policy.params) : Policy.t =
  let t_hi = 1.0 -. qaq.s3 and t_lo = 1.0 -. qaq.s5 in
  Policy.Custom
    (fun ~requirements ~counters:_ ~verdict ~laxity ~success ->
      let ambiguity = Policy.ambiguity ~success in
      match verdict with
      | Tvl.No -> [ Decision.Ignore ]
      | Tvl.Yes ->
          if laxity <= requirements.Quality.laxity then
            [ Decision.Forward; Decision.Probe ]
          else [ Decision.Probe ]
      | Tvl.Maybe ->
          if laxity > requirements.Quality.laxity then
            if ambiguity < t_hi then [ Decision.Probe ]
            else [ Decision.Ignore; Decision.Probe ]
          else if ambiguity < t_lo then [ Decision.Probe ]
          else if qaq.p_fm > 0.5 then
            [ Decision.Forward; Decision.Probe ]
          else [ Decision.Ignore; Decision.Forward; Decision.Probe ])

let ablation_ambiguity () =
  section "Ablation: probe-selection score (success s(o) vs ambiguity |s-0.5|/0.5)";
  let table =
    Text_table.create ~title:"probe-score ablation (W/|T|, 5 reps)"
      ~header:[ "r_q"; "QaQ (success-directed)"; "ambiguity-directed" ]
  in
  let rng = Rng.create 4242 in
  List.iter
    (fun r_q ->
      let setting = { Exp_config.default with r_q } in
      let datasets =
        List.init 5 (fun _ -> Synthetic.generate rng (Exp_config.workload setting))
      in
      let qaq_params = (Exp_runner.solve_setting setting).params in
      let run policy =
        let outcomes =
          List.map
            (fun data ->
              let report =
                Operator.run ~rng ~instance:Synthetic.instance
                  ~cascade:
                    (Cascade.of_driver
                       (Probe_driver.scalar Synthetic.probe))
                  ~policy
                  ~requirements:(Exp_config.requirements setting)
                  (Operator.source_of_array data)
              in
              Operator.normalized_cost Cost_model.paper
                ~total:(Array.length data) report)
            datasets
        in
        let arr = Array.of_list outcomes in
        Printf.sprintf "%.2f±%.2f" (Stats.mean arr) (Stats.confidence95 arr)
      in
      Text_table.add_row table
        [ Printf.sprintf "%g" r_q;
          run (Policy.qaq qaq_params);
          run (ambiguity_policy qaq_params) ])
    [ 0.4; 0.6; 0.8 ];
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Ablation 3: zone-map pruning (the §7 index-access future work)      *)
(* ------------------------------------------------------------------ *)

let ablation_index () =
  section "Ablation: zone-map page pruning (section 7 future work)";
  print_endline
    "Interval data, value-clustered layout, query 'value >= 900' over\n\
     truths in [0, 1000].  The column store's zone hulls skip 128-row\n\
     pages whose hull is NO, shrinking |M_ns| for free; the object\n\
     filter drops each NO record before the scan.";
  let rng = Rng.create 99 in
  let records =
    Interval_data.uniform_intervals rng ~n:20000
      ~value_range:(Interval.make 0.0 1000.0) ~max_width:50.0
  in
  Array.sort
    (fun (a : Interval_data.record) b -> Float.compare a.truth b.truth)
    records;
  let store = Interval_data.to_store ~chunk_size:128 records in
  let pred = Predicate.ge 900.0 in
  let requirements =
    Quality.requirements ~precision:0.95 ~recall:0.9 ~laxity:40.0
  in
  (* One chunk per wave, so the page count is what the scan consumed
     plus at most one chunk of read-ahead. *)
  let run ~pruned =
    let fetched = ref 0 in
    let counting =
      Column_store.of_fetch ~length:(Column_store.length store)
        ~chunk_size:(Column_store.chunk_size store)
        ~zones:(Column_store.zones store)
        (fun c ->
          incr fetched;
          Column_store.chunk store c)
    in
    let report =
      Operator.run ~rng ~instance:(Interval_data.instance pred)
        ~cascade:(Cascade.of_driver (Probe_driver.scalar Interval_data.probe))
        ~policy:Policy.stingy ~requirements
        ((Scan_pipeline.store ~wave:1 ~prune:pruned
            ~of_row:Interval_data.of_row ~pred counting)
           .cursor ())
    in
    (report, !fetched)
  in
  let table =
    Text_table.create ~title:"zone-map ablation"
      ~header:
        [ "access path"; "pages fetched"; "objects read"; "probes"; "W";
          "answer"; "r^G" ]
  in
  List.iter
    (fun (label, pruned) ->
      let report, pages = run ~pruned in
      Text_table.add_row table
        [ label;
          string_of_int pages;
          string_of_int report.counts.reads;
          string_of_int report.counts.probes;
          Printf.sprintf "%.0f" (Operator.cost Cost_model.paper report);
          string_of_int report.answer_size;
          Printf.sprintf "%.3f" report.guarantees.recall ])
    [ ("full scan", false); ("zone-map pruned", true) ];
  (* Object-granular filtering, same query: every record the predicate
     does not call NO, in order of support upper bound. *)
  let by_hi = Array.copy records in
  Array.sort
    (fun (a : Interval_data.record) b ->
      Float.compare
        (Interval.hi (Uncertain.support a.belief))
        (Interval.hi (Uncertain.support b.belief)))
    by_hi;
  let cands =
    Array.of_list
      (List.filter
         (fun (r : Interval_data.record) ->
           not (Tvl.equal (Predicate.classify pred r.belief) Tvl.No))
         (Array.to_list by_hi))
  in
  let report =
    Operator.run ~rng ~instance:(Interval_data.instance pred)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Interval_data.probe))
      ~policy:Policy.stingy ~requirements
      (Operator.source_of_array cands)
  in
  Text_table.add_row table
    [ "object filter"; "-";
      string_of_int report.counts.reads;
      string_of_int report.counts.probes;
      Printf.sprintf "%.0f" (Operator.cost Cost_model.paper report);
      string_of_int report.answer_size;
      Printf.sprintf "%.3f" report.guarantees.recall ];
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Ablation 4: QaQ band join and its probe cache (§7 future work)      *)
(* ------------------------------------------------------------------ *)

let ablation_join () =
  section "Ablation: band join (section 7 future work) and probe sharing";
  print_endline
    "Band join |x - y| <= 5 over two 150-record interval relations\n\
     (22500 pairs).  Probe sharing charges each object once however\n\
     many pairs need it; the no-sharing baseline re-fetches per pair.";
  let rng = Rng.create 2718 in
  let gen () =
    Interval_data.uniform_intervals rng ~n:150
      ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
  in
  let left = gen () and right = gen () in
  let requirements =
    Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:8.0
  in
  let table =
    Text_table.create ~title:"band-join ablation"
      ~header:
        [ "configuration"; "pairs read"; "probe fetches"; "requests"; "W";
          "W/pair"; "answer" ]
  in
  List.iter
    (fun (label, policy, share_probes) ->
      let report =
        Band_join.run ~rng:(Rng.create 3) ~policy ~share_probes ~requirements
          ~epsilon:5.0 ~left ~right ()
      in
      let w = Band_join.cost Cost_model.paper report in
      Text_table.add_row table
        [ label;
          string_of_int report.counts.reads;
          string_of_int report.object_probes;
          string_of_int report.probe_requests;
          Printf.sprintf "%.0f" w;
          Printf.sprintf "%.3f" (w /. float_of_int report.pairs_total);
          string_of_int report.answer_size ])
    [
      ("Stingy + sharing", Policy.stingy, true);
      ("Stingy, no sharing", Policy.stingy, false);
      ("Greedy + sharing", Policy.greedy, true);
      ("Greedy, no sharing", Policy.greedy, false);
    ];
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Ablation 5: adaptive re-planning vs a wrong pre-query estimate      *)
(* ------------------------------------------------------------------ *)

let ablation_adaptive () =
  section "Ablation: adaptive re-planning under a wrong pre-query estimate";
  print_endline
    "The workload is really f_y = 0.2, f_m = 0.4, but the static QaQ\n\
     plan was solved for f_y = 0.05, f_m = 0.02 (a bad 1% sample).\n\
     The adaptive policy starts from the same wrong plan and re-solves\n\
     every 500 reads from what the scan itself observes.  W/|T|, 5 reps.";
  let requirements = Exp_config.requirements Exp_config.default in
  let solved ~f_y ~f_m =
    (Planner.solve ~total:10000 ~f_y ~f_m ~max_laxity:100.0 ~requirements ())
      .params
  in
  let wrong_prior = solved ~f_y:0.05 ~f_m:0.02 in
  let oracle = solved ~f_y:0.2 ~f_m:0.4 in
  let rng = Rng.create 31 in
  let datasets =
    List.init 5 (fun _ ->
        Synthetic.generate rng
          (Synthetic.config ~total:10000 ~f_y:0.2 ~f_m:0.4 ()))
  in
  let normalized data report =
    Operator.cost Cost_model.paper report /. float_of_int (Array.length data)
  in
  let run_static params data =
    normalized data
      (Operator.run ~rng ~instance:Synthetic.instance
         ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
         ~policy:(Policy.qaq params) ~requirements
         (Operator.source_of_array data))
  in
  let run_adaptive data =
    let adaptive =
      Adaptive.create ~rng:(Rng.split rng) ~total:(Array.length data)
        ~max_laxity:100.0 ~requirements ~replan_every:500 ~max_replans:8
        ~initial:wrong_prior ()
    in
    normalized data
      (Operator.run ~rng ~instance:Synthetic.instance
         ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
         ~policy:(Adaptive.policy adaptive) ~requirements
         (Operator.source_of_array data))
  in
  let summarize f =
    let xs = Array.of_list (List.map f datasets) in
    Printf.sprintf "%.2f±%.2f" (Stats.mean xs) (Stats.confidence95 xs)
  in
  let table =
    Text_table.create ~title:"adaptive re-planning ablation"
      ~header:[ "plan"; "W/|T|" ]
  in
  Text_table.add_row table [ "static, wrong prior"; summarize (run_static wrong_prior) ];
  Text_table.add_row table [ "adaptive from wrong prior"; summarize run_adaptive ];
  Text_table.add_row table [ "static, oracle prior"; summarize (run_static oracle) ];
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Generality: the framework on non-interval imprecision models        *)
(* ------------------------------------------------------------------ *)

(* The paper claims (§1, fn. 1) the technique works for any model of
   imprecision that supports classification; §2.2 proposes a
   distribution parameter (the standard deviation) as the laxity of a
   density-based model.  This section runs the identical pipeline —
   sample, histogram-density solve, operate — over Gaussian beliefs and
   over interval beliefs on the same hidden truths, checking that the
   guarantee machinery and the cost behaviour carry over. *)
let generality_models () =
  section "Generality: interval vs Gaussian imprecision models";
  let predicate = Predicate.ge 60.0 in
  let requirements =
    Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:3.0
  in
  let table =
    Text_table.create ~title:"model generality (same pipeline, both models)"
      ~header:
        [ "model"; "W/|T|"; "probes"; "answer"; "p^G"; "r^G"; "actual p";
          "actual r" ]
  in
  let run label records =
    let rng = Rng.create 1234 in
    let result =
      Engine.run ~rng
        ~planning:
          (Engine.Sampled { fraction = 0.02; density = `Histogram })
        ~instance:(Interval_data.instance predicate)
        ~probe:(Probe_driver.scalar Interval_data.probe) ~requirements
        (Scan_pipeline.rows ~instance:(Interval_data.instance predicate) records)
    in
    let report = result.report in
    let answer_in_exact =
      List.length
        (List.filter
           (fun e -> Interval_data.in_exact predicate e.Operator.obj)
           report.answer)
    in
    Text_table.add_row table
      [ label;
        Printf.sprintf "%.2f" result.normalized_cost;
        string_of_int report.counts.probes;
        string_of_int report.answer_size;
        Printf.sprintf "%.3f" report.guarantees.precision;
        Printf.sprintf "%.3f" report.guarantees.recall;
        Printf.sprintf "%.3f"
          (Quality.Diagnostics.precision ~answer_size:report.answer_size
             ~answer_in_exact);
        Printf.sprintf "%.3f"
          (Quality.Diagnostics.recall
             ~exact_size:(Interval_data.exact_size predicate records)
             ~answer_in_exact) ]
  in
  let rng = Rng.create 5678 in
  run "interval beliefs"
    (Interval_data.uniform_intervals rng ~n:10000
       ~value_range:(Interval.make 0.0 100.0) ~max_width:8.0);
  run "gaussian beliefs"
    (Interval_data.gaussian_beliefs rng ~n:10000 ~mean:55.0 ~stddev:15.0
       ~noise:2.0);
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Ablation 6: top-k probe frugality vs. resolve-all-contenders        *)
(* ------------------------------------------------------------------ *)

let ablation_top_k () =
  section "Ablation: quality-aware top-k (rank queries, related work [10])";
  print_endline
    "Top-40 of 2000 interval records.  The quality-aware loop certifies\n\
     just enough members for the recall bound; the baseline resolves\n\
     every contender (every record not certainly out of the top-k).";
  let records =
    Interval_data.uniform_intervals (Rng.create 515) ~n:2000
      ~value_range:(Interval.make 0.0 1000.0) ~max_width:60.0
  in
  let k = 40 in
  (* Baseline: probe every record whose verdict is not NO. *)
  let baseline_probes =
    let verdicts = Top_k.classify ~k records in
    Array.fold_left
      (fun acc v -> if Tvl.equal v Tvl.No then acc else acc + 1)
      0 verdicts
  in
  let table =
    Text_table.create ~title:"top-k ablation"
      ~header:[ "r_q"; "probes"; "certified"; "answered"; "W" ]
  in
  List.iter
    (fun r_q ->
      let requirements =
        Quality.requirements ~precision:1.0 ~recall:r_q ~laxity:30.0
      in
      let report = Top_k.run ~requirements ~k records in
      Text_table.add_row table
        [ Printf.sprintf "%g" r_q;
          string_of_int report.counts.probes;
          string_of_int report.certified;
          string_of_int (List.length report.answer);
          Printf.sprintf "%.0f"
            (Cost_meter.cost_of_counts Cost_model.paper report.counts) ])
    [ 0.2; 0.5; 0.8; 1.0 ];
  Text_table.add_row table
    [ "resolve-all baseline"; string_of_int baseline_probes; "-"; "-";
      Printf.sprintf "%.0f"
        (float_of_int (Array.length records)
        +. (float_of_int baseline_probes *. 100.0)) ];
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Ablation 7: per-attribute vs whole-tuple probing                    *)
(* ------------------------------------------------------------------ *)

let ablation_relation () =
  section "Ablation: relational selection with per-attribute probing";
  print_endline
    "Condition 'temp >= 70 AND battery <= 25' over 10000 two-attribute\n\
     tuples.  Per-attribute probing fetches one attribute at a time and\n\
     stops when the condition is decided; whole-tuple probing always\n\
     fetches both attributes.";
  let s = Relation.schema [ "temp"; "battery" ] in
  let cond =
    Relation.And
      (Relation.atom s "temp" (Predicate.ge 70.0),
       Relation.atom s "battery" (Predicate.le 25.0))
  in
  let rng = Rng.create 823 in
  let tuples =
    Array.init 10000 (fun id ->
        let attr_belief () =
          let truth = Rng.float rng 100.0 in
          let w = Rng.float rng 30.0 in
          let off = Rng.float rng w in
          (Uncertain.interval (truth -. off) (truth -. off +. w), truth)
        in
        let b0, t0 = attr_belief () and b1, t1 = attr_belief () in
        Relation.tuple ~id ~beliefs:[| b0; b1 |] ~truths:[| t0; t1 |])
  in
  let requirements =
    Quality.requirements ~precision:0.9 ~recall:0.7 ~laxity:25.0
  in
  let report =
    Relation.select ~rng:(Rng.create 5) ~requirements cond tuples
  in
  let table =
    Text_table.create ~title:"relational probing ablation"
      ~header:
        [ "probing"; "probe decisions"; "attribute fetches"; "W"; "answer" ]
  in
  let cost (c : Cost_meter.counts) = Cost_meter.cost_of_counts Cost_model.paper c in
  Text_table.add_row table
    [ "per-attribute (planned)";
      string_of_int report.probe_actions;
      string_of_int report.counts.probes;
      Printf.sprintf "%.0f" (cost report.counts);
      string_of_int report.answer_size ];
  (* Whole-tuple baseline: same decisions would fetch 2 attributes per
     probed tuple. *)
  let whole_tuple =
    { report.counts with probes = 2 * report.probe_actions }
  in
  Text_table.add_row table
    [ "whole-tuple (baseline)";
      string_of_int report.probe_actions;
      string_of_int whole_tuple.probes;
      Printf.sprintf "%.0f" (cost whole_tuple);
      string_of_int report.answer_size ];
  Text_table.print table

(* ------------------------------------------------------------------ *)
(* Ablation 8: batched probing (the Probe_driver pipeline)             *)
(* ------------------------------------------------------------------ *)

let ablation_batching () =
  section "Ablation: batched probing under a per-batch setup cost";
  print_endline
    "Probe-heavy workload (f_m = 0.4, r_q = 0.8) resolved through a\n\
     Probe_source with constant wakeup latency, swept over batch size B.\n\
     Each batch pays one setup charge c_b = 200 and one source wakeup;\n\
     the optimizer prices probes at the amortized c_p + c_b/B.  Larger\n\
     batches amortize the setup away while every guarantee still holds.";
  let data =
    Synthetic.generate (Rng.create 808)
      (Synthetic.config ~total:10000 ~f_y:0.2 ~f_m:0.4 ~max_laxity:100.0 ())
  in
  let requirements =
    Quality.requirements ~precision:0.92 ~recall:0.8 ~laxity:40.0
  in
  let model =
    Cost_model.make ~c_r:1.0 ~c_p:100.0 ~c_wi:1.0 ~c_wp:1.0 ~c_b:200.0 ()
  in
  let table =
    Text_table.create ~title:"batch-size sweep (c_b = 200, wakeup latency 5)"
      ~header:
        [ "B"; "amortized c_p"; "probes"; "batches"; "wakeup latency"; "W";
          "W/|T|"; "meets" ]
  in
  let cost_at = Hashtbl.create 8 in
  List.iter
    (fun b ->
      let source =
        Probe_source.create ~latency:(Probe_source.Constant 5.0)
          Synthetic.probe
      in
      let report =
        Operator.run ~rng:(Rng.create 809) ~instance:Synthetic.instance
          ~cascade:
            (Cascade.of_driver
               (Probe_source.driver ~batch_size:b source))
          ~policy:Policy.stingy ~requirements ~collect:false
          (Operator.source_of_array data)
      in
      let st = Probe_source.stats source in
      let w = Operator.cost model report in
      Hashtbl.replace cost_at b w;
      Text_table.add_row table
        [ string_of_int b;
          Printf.sprintf "%.1f" (Cost_model.amortized_probe model ~batch:b);
          string_of_int report.counts.probes;
          string_of_int report.counts.batches;
          Printf.sprintf "%.0f" st.Probe_source.simulated_latency;
          Printf.sprintf "%.0f" w;
          Printf.sprintf "%.2f" (w /. float_of_int (Array.length data));
          (if Quality.meets report.guarantees requirements then "yes"
           else "NO") ])
    [ 1; 4; 16; 64 ];
  Text_table.print table;
  let w_of b = Hashtbl.find cost_at b in
  Printf.printf "cost decreasing with batch size: %s\n"
    (if w_of 1 > w_of 4 && w_of 4 > w_of 16 then "yes (B=1 > B=4 > B=16)"
     else "NO — check the batch accounting")

(* ------------------------------------------------------------------ *)
(* The standard workload of the server and telemetry modes             *)
(* ------------------------------------------------------------------ *)

let standard_workload () =
  Synthetic.generate (Rng.create 606) (Synthetic.config ~total:2000 ())

let standard_requirements =
  Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0

let engine_seed = 607

(* ------------------------------------------------------------------ *)
(* Columnar: row vs columnar pre-classification throughput             *)
(* ------------------------------------------------------------------ *)

(* A never-probe workload isolates the pre-classification stage — the
   only part the storage layout touches: every YES is forwarded, every
   MAYBE ignored, no probe is ever issued, and recall 1 forces the scan
   to exhaustion.  The row path evaluates the instance closures per
   object, inside the decision loop; the columnar path runs the
   compiled kernel over chunk buffers ahead of it.  Both
   must produce identical reports — throughput is only interesting on
   equal answers.  The gate runs at domains=1 in fifteen row/columnar
   pairs that alternate which layout runs first, so drift on a shared
   box lands on both sides; every run must match the baseline report,
   and the median per-pair speedup (row time over columnar time) must
   be at least 1.  Domains 4 and 8 are one identity-checked run per
   layout, reported but not gated. *)
let columnar_bench () =
  section "Columnar: row vs columnar scan throughput (never-probe)";
  let n = 200_000 in
  let chunk_size = 64 in
  let pages = ((n - 1) / chunk_size) + 1 in
  let records =
    Interval_data.uniform_intervals (Rng.create 8192) ~n
      ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
  in
  (* A multi-band selection: five components to test per object, and
     a success probability to integrate for every MAYBE. *)
  let pred =
    Predicate.(
      between 10.0 18.0 ||| between 26.0 34.0 ||| between 42.0 50.0
      ||| between 58.0 66.0 ||| between 74.0 82.0)
  in
  let store = Interval_data.to_store ~chunk_size records in
  let requirements =
    Quality.requirements ~precision:0.0 ~recall:1.0 ~laxity:10.0
  in
  let never_probe =
    Policy.Custom
      (fun ~requirements:_ ~counters:_ ~verdict ~laxity:_ ~success:_ ->
        match verdict with
        | Tvl.Yes -> [ Decision.Forward ]
        | Tvl.Maybe -> [ Decision.Ignore ]
        | Tvl.No -> assert false)
  in
  let instance = Interval_data.instance pred in
  let probe = Probe_driver.scalar Interval_data.probe in
  let scan ?lanes layout =
    let meter = Cost_meter.create () in
    let source =
      match layout with
      | `Row -> (Scan_pipeline.rows ~instance records).cursor ?lanes ()
      | `Columnar ->
          (Scan_pipeline.store ~of_row:Interval_data.of_row ~pred store).cursor
            ?lanes ()
    in
    let report =
      Operator.run ~rng:(Rng.create 8193) ~meter ~collect:false
        ~enforce:false ~instance ~cascade:(Cascade.of_driver probe)
        ~policy:never_probe ~requirements source
    in
    (report, Cost_meter.counts meter)
  in
  let fingerprint ((report : Interval_data.record Operator.report), counts) =
    ( report.yes_seen,
      report.maybe_ignored,
      report.answer_size,
      report.guarantees,
      counts )
  in
  let name = function `Row -> "row" | `Columnar -> "columnar" in
  ignore (scan `Row) (* warmup *);
  ignore (scan `Columnar);
  let baseline = fingerprint (scan `Row) in
  let ok = ref true in
  let timed ~domains layout =
    let t0 = Unix.gettimeofday () in
    let r = scan ~lanes:domains layout in
    let dt = Unix.gettimeofday () -. t0 in
    if fingerprint r <> baseline then begin
      ok := false;
      Printf.printf "%-8s domains=%d RESULT DIVERGED\n" (name layout) domains
    end;
    (dt, snd r)
  in
  let pairs = 15 in
  let speedups =
    Array.init pairs (fun i ->
        let row, col =
          if i mod 2 = 0 then
            let row = timed ~domains:1 `Row in
            (row, timed ~domains:1 `Columnar)
          else
            let col = timed ~domains:1 `Columnar in
            (timed ~domains:1 `Row, col)
        in
        let speedup = fst row /. fst col in
        Printf.printf "pair %2d (%s first): row %.3f s, columnar %.3f s (%.2fx)\n"
          i
          (if i mod 2 = 0 then "row" else "columnar")
          (fst row) (fst col) speedup;
        speedup)
  in
  List.iter
    (fun domains ->
      List.iter
        (fun layout ->
          let dt, counts = timed ~domains layout in
          Printf.printf "%-8s domains=%d  %.3fs  %10.0f pages/sec  probes %d\n"
            (name layout) domains dt
            (float_of_int pages /. dt)
            counts.Cost_meter.probes)
        [ `Row; `Columnar ])
    [ 4; 8 ];
  Array.sort Float.compare speedups;
  let ratio = speedups.(pairs / 2) in
  Printf.printf "row and columnar reports identical: %s\n"
    (if !ok then "yes" else "NO — layout equivalence broken");
  Printf.printf "columnar vs row at domains=1, median of %d pairs: %.2fx\n"
    pairs ratio;
  if not !ok then exit 1;
  if Float.is_nan ratio || ratio < 1.0 then begin
    print_endline "columnar slower than row at domains=1 — FAIL";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per paper table            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let trial_test (sweep : Exp_config.sweep) suffix kind =
    (* Bench the median setting of the sweep on a smaller |T| so each
       Bechamel run stays in the millisecond range. *)
    let setting =
      List.nth sweep.settings (List.length sweep.settings / 2)
    in
    let setting = { setting with total = 2000 } in
    let rng = Rng.create 5150 in
    let data = Synthetic.generate rng (Exp_config.workload setting) in
    Test.make
      ~name:(Printf.sprintf "T%s:%s-trial-%s" suffix sweep.id
               (Exp_runner.policy_name kind))
      (Staged.stage (fun () ->
           ignore (Exp_runner.trial_run ~rng ~setting ~data kind)))
  in
  let opt_test (sweep : Exp_config.sweep) suffix =
    let setting =
      List.nth sweep.settings (List.length sweep.settings / 2)
    in
    Test.make
      ~name:(Printf.sprintf "T%s:%s-solve" suffix sweep.id)
      (Staged.stage (fun () -> ignore (Exp_runner.solve_setting setting)))
  in
  (* T1–T5: optimizer solves; T6–T10: trial runs. *)
  let opt_benches =
    List.mapi
      (fun i sweep -> opt_test sweep (string_of_int (i + 1)))
      Exp_config.all_sweeps
  in
  let trial_benches =
    List.mapi
      (fun i sweep ->
        trial_test sweep (string_of_int (i + 6)) Exp_runner.Qaq)
      Exp_config.all_sweeps
  in
  let rng = Rng.create 31337 in
  let data = Synthetic.generate rng (Synthetic.config ~total:10000 ()) in
  let core_benches =
    [
      Test.make ~name:"core:operator-scan-10k"
        (Staged.stage (fun () ->
             ignore
               (Operator.run ~rng ~instance:Synthetic.instance
                  ~cascade:
                    (Cascade.of_driver
                       (Probe_driver.scalar Synthetic.probe))
                  ~policy:Policy.stingy ~collect:false
                  ~requirements:
                    (Quality.requirements ~precision:0.9 ~recall:0.5
                       ~laxity:50.0)
                  (Operator.source_of_array data))));
      (* One plan of the server's warm workload: the uniform density,
         f_y = f_m = 0.2, L = 100, |T| = 10,000, B = 8, p 0.9, r 0.6,
         l 50 — the 19-seed multistart every such query runs. *)
      Test.make ~name:"optimizer:solve-warm"
        (let tiers = Probe_tier.oracle_only ~cost:Cost_model.paper ~batch:8 () in
         let requirements =
           Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0
         in
         Staged.stage (fun () ->
             ignore
               (Planner.solve ~total:10_000 ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0
                  ~requirements ~tiers ())));
      Test.make ~name:"core:paa-distance-bounds"
        (let series =
           Time_series.random_walk rng ~length:512 ~start:0.0 ~step_stddev:1.0
         in
         let sketch = Paa.compress ~segments:16 series in
         let q =
           Time_series.random_walk rng ~length:512 ~start:0.0 ~step_stddev:1.0
         in
         Staged.stage (fun () -> ignore (Paa.distance_bounds sketch q)));
      Test.make ~name:"core:predicate-classify"
        (let belief = Uncertain.interval 10.0 20.0 in
         let pred = Predicate.(ge 12.0 &&& le 25.0) in
         Staged.stage (fun () -> ignore (Predicate.classify pred belief)));
      Test.make ~name:"core:band-join-100x100"
        (let jrng = Rng.create 1999 in
         let gen () =
           Interval_data.uniform_intervals jrng ~n:100
             ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
         in
         let left = gen () and right = gen () in
         let requirements =
           Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:8.0
         in
         Staged.stage (fun () ->
             ignore
               (Band_join.run ~rng:jrng ~collect:false ~requirements
                  ~epsilon:5.0 ~left ~right ())));
    ]
  in
  opt_benches @ trial_benches @ core_benches

let run_micro () =
  let open Bechamel in
  section "Bechamel micro-benchmarks";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 50) ()
  in
  let tests = micro_tests () in
  List.iter
    (fun test ->
      List.iter
        (fun (name, result) ->
          let ols =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              (Toolkit.Instance.monotonic_clock) result
          in
          match Analyze.OLS.estimates ols with
          | Some [ ns ] -> Printf.printf "%-32s %12.0f ns/run\n%!" name ns
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n%!" name)
        (Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
        |> Hashtbl.to_seq |> List.of_seq))
    tests

(* ------------------------------------------------------------------ *)
(* Server: cross-query broker throughput under concurrency            *)
(* ------------------------------------------------------------------ *)

(* The QaQ server scenario: several clients run the same-shape query
   (own seed, same dataset, same quality) against one probe backend
   with real per-batch latency.  The serial baseline gives every query
   its own direct driver — each probe is paid again, query after query.
   The swept configurations share a [Probe_broker]: overlapping probe
   sets are charged once, partial flushes pack into full batches, and
   [Engine.execute_many] overlaps one query's classification with
   another's backend wait.

   Domains 1, 2 and 4 are one run each, reported.  The 8-domain gate
   runs five serial/shared pairs that alternate which side runs first,
   so drift on a shared box lands on both sides.  Gates (exit 1): the
   median per-pair speedup (serial time over shared time) must be at
   least 1.3; on every run the broker must charge strictly fewer
   backend probes than the solo runs paid in total; and on every run
   each query's result must be bit-for-bit its solo run — same answer,
   same guarantees, same per-query accounting — with requirements
   met. *)
let server_bench () =
  section "Server: cross-query probe broker concurrency sweep";
  print_endline
    "8 clients, one shared dataset, 10 ms of real backend latency per\n\
     probe batch (the probe-bound regime a broker exists for).  serial\n\
     = solo drivers back to back; the sweep runs the same queries\n\
     through one shared broker on 1/2/4/8 domains.";
  let data = standard_workload () in
  let n_clients = 8 in
  let batch = 8 in
  let probe_seconds = 0.010 in
  (* The backend wait gives the lane up, as the server's resolver does:
     lanes stop at the core count, and a lane runs the batch's next
     query while its query waits. *)
  let resolve objs =
    Domain_pool.blocking (fun () -> Unix.sleepf probe_seconds);
    Array.map (fun o -> Probe_driver.Resolved (Synthetic.probe o)) objs
  in
  let seeds = Array.init n_clients (fun i -> engine_seed + i) in
  let fingerprint (r : Synthetic.obj Engine.result) =
    let report = r.Engine.report in
    ( List.map
        (fun e -> (e.Operator.obj.Synthetic.id, e.Operator.precise))
        report.Operator.answer,
      report.Operator.guarantees,
      r.Engine.counts )
  in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun m -> ok := false; print_endline m) fmt in
  let serial () =
    let t0 = Unix.gettimeofday () in
    let results =
      Array.map
        (fun seed ->
          Engine.run ~rng:(Rng.create seed) ~max_laxity:100.0 ~domains:1
            ~instance:Synthetic.instance
            ~probe:(Probe_driver.create_outcomes ~batch_size:batch resolve)
            ~requirements:standard_requirements
            (Scan_pipeline.rows ~instance:Synthetic.instance data))
        seeds
    in
    (results, Unix.gettimeofday () -. t0)
  in
  let solo, serial_seconds = serial () in
  let solo_probes =
    Array.fold_left
      (fun acc r -> acc + r.Engine.counts.Cost_meter.probes)
      0 solo
  in
  Printf.printf
    "serial (direct drivers): %.3f s, %.2f queries/s, %d probes paid\n"
    serial_seconds
    (float_of_int n_clients /. serial_seconds)
    solo_probes;
  let identical results =
    Array.for_all2 (fun a b -> fingerprint a = fingerprint b) solo results
  in
  (* One shared-broker run, checked against the solo runs. *)
  let shared ~domains =
    let broker =
      Probe_broker.create
        ~key:(fun (o : Synthetic.obj) -> o.Synthetic.id)
        [| Probe_broker.backend ~batch resolve |]
    in
    let runs =
      Array.mapi
        (fun i seed ->
          let probe =
            Probe_broker.client ~tenant:(Printf.sprintf "c%d" i) broker
          in
          fun () ->
            Engine.run ~rng:(Rng.create seed) ~max_laxity:100.0
              ~domains:1 ~instance:Synthetic.instance ~probe
              ~requirements:standard_requirements
              (Scan_pipeline.rows ~instance:Synthetic.instance data))
        seeds
    in
    let t0 = Unix.gettimeofday () in
    let results = Engine.execute_many ~domains runs in
    let seconds = Unix.gettimeofday () -. t0 in
    let stats = Probe_broker.stats broker in
    let same = identical results in
    if not same then
      fail "NOT IDENTICAL at %d domains: broker runs differ from solo" domains;
    if
      not
        (Array.for_all
           (fun r -> r.Engine.degradation.Engine.requirements_met)
           results)
    then fail "REQUIREMENTS MISSED at %d domains" domains;
    if stats.Probe_broker.charged >= solo_probes then
      fail "NO PROBE SAVING at %d domains: broker charged %d >= solo %d"
        domains stats.Probe_broker.charged solo_probes;
    (seconds, stats, same)
  in
  List.iter
    (fun domains ->
      let seconds, stats, same = shared ~domains in
      Printf.printf
        "domains %d: %.3f s, %6.2f queries/s (%.2fx), charged %d, coalesced \
         %d, fresh %d, %d batches%s\n"
        domains seconds
        (float_of_int n_clients /. seconds)
        (serial_seconds /. seconds)
        stats.Probe_broker.charged stats.Probe_broker.coalesced
        stats.Probe_broker.fresh_hits stats.Probe_broker.batches
        (if same then "" else "  [MISMATCH]"))
    [ 1; 2; 4 ];
  let pairs = 5 in
  let speedups =
    Array.init pairs (fun i ->
        let timed_serial () =
          let results, seconds = serial () in
          if not (identical results) then
            fail "NOT IDENTICAL: pair %d serial run differs from the first" i;
          seconds
        in
        let serial_s, (shared_s, stats, same) =
          if i mod 2 = 0 then
            let serial_s = timed_serial () in
            (serial_s, shared ~domains:8)
          else
            let sh = shared ~domains:8 in
            (timed_serial (), sh)
        in
        let speedup = serial_s /. shared_s in
        Printf.printf
          "pair %d (%s first): serial %.3f s, domains 8 %.3f s (%.2fx), \
           charged %d, coalesced %d, fresh %d, %d batches%s\n"
          i
          (if i mod 2 = 0 then "serial" else "shared")
          serial_s shared_s speedup stats.Probe_broker.charged
          stats.Probe_broker.coalesced stats.Probe_broker.fresh_hits
          stats.Probe_broker.batches
          (if same then "" else "  [MISMATCH]");
        speedup)
  in
  Array.sort Float.compare speedups;
  let speedup_at_8 = speedups.(pairs / 2) in
  Printf.printf "domains 8 vs serial, median of %d pairs: %.2fx\n" pairs
    speedup_at_8;
  if Float.is_nan speedup_at_8 || speedup_at_8 < 1.3 then
    fail "TOO SLOW: %.2fx at 8 domains (gate: median pair >= 1.3x over serial)"
      speedup_at_8;
  Printf.printf "server concurrency gates hold: %s\n"
    (if !ok then "yes" else "NO");
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Telemetry: live-telemetry overhead on the server scenario          *)
(* ------------------------------------------------------------------ *)

(* The server-bench workload (8 clients, one shared broker, 10 ms of
   real backend latency per batch) run in pairs at 8 domains: once
   bare, once with the full live-telemetry stack on — per-query trace
   contexts stamped on engine and broker events, a flight recorder on
   the shared trace path, rolling per-tenant SLO windows fed from every
   result.  Seven pairs alternate which side runs first, so drift on a
   shared box lands on both sides.  Gates (exit 1): every telemetry run
   must be bit-for-bit identical to its bare run (telemetry is
   read-only), and the median per-pair time ratio may exceed 1 by at
   most 5%. *)
let telemetry_bench () =
  section "Telemetry: live-telemetry overhead on the server scenario";
  let data = standard_workload () in
  let n_clients = 8 in
  let batch = 8 in
  let domains = 8 in
  let probe_seconds = 0.010 in
  let resolve objs =
    Unix.sleepf probe_seconds;
    Array.map (fun o -> Probe_driver.Resolved (Synthetic.probe o)) objs
  in
  let seeds = Array.init n_clients (fun i -> engine_seed + i) in
  let fingerprint (r : Synthetic.obj Engine.result) =
    let report = r.Engine.report in
    ( List.map
        (fun e -> (e.Operator.obj.Synthetic.id, e.Operator.precise))
        report.Operator.answer,
      report.Operator.guarantees,
      r.Engine.counts )
  in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun m -> ok := false; print_endline m) fmt in
  let run ~telemetry =
    let obs, recorder, slo =
      if telemetry then
        let recorder = Flight_recorder.create ~capacity:256 () in
        let obs = Obs.create ~trace:(Flight_recorder.sink recorder) () in
        (Some obs, Some recorder, Some (Slo.create ()))
      else (None, None, None)
    in
    let broker =
      Probe_broker.create ?obs
        ~key:(fun (o : Synthetic.obj) -> o.Synthetic.id)
        [| Probe_broker.backend ~batch resolve |]
    in
    let runs =
      Array.mapi
        (fun i seed ->
          let tenant = Printf.sprintf "c%d" i in
          let trace_id = Engine.next_trace_id () in
          let obs_q =
            Option.map
              (fun o ->
                Obs.with_context o
                  { Trace.query = Some trace_id; tenant = Some tenant })
              obs
          in
          let probe = Probe_broker.client ?obs:obs_q ~tenant broker in
          fun () ->
            Engine.run ~rng:(Rng.create seed) ~max_laxity:100.0 ~domains:1
              ?obs:obs_q ~instance:Synthetic.instance ~probe
              ~requirements:standard_requirements
              (Scan_pipeline.rows ~instance:Synthetic.instance data))
        seeds
    in
    let t0 = Unix.gettimeofday () in
    let results = Engine.execute_many ~domains runs in
    let seconds = Unix.gettimeofday () -. t0 in
    (match slo with
    | Some slo ->
        Array.iteri
          (fun i r ->
            Slo.observe slo
              {
                Slo.tenant = Printf.sprintf "c%d" i;
                latency_seconds = r.Engine.elapsed_seconds;
                probes = r.Engine.counts.Cost_meter.probes;
                degraded = Engine.degraded r;
                rejections = 0;
                shortfall = not r.Engine.degradation.Engine.requirements_met;
              })
          results
    | None -> ());
    (results, seconds, recorder, slo)
  in
  let pairs = 7 in
  let ratios =
    Array.init pairs (fun i ->
        let bare, live =
          if i mod 2 = 0 then
            let bare = run ~telemetry:false in
            (bare, run ~telemetry:true)
          else
            let live = run ~telemetry:true in
            (run ~telemetry:false, live)
        in
        let bare, bare_seconds, _, _ = bare in
        let live, live_seconds, recorder, slo = live in
        if
          not
            (Array.for_all2 (fun a b -> fingerprint a = fingerprint b) bare live)
        then fail "NOT IDENTICAL: pair %d telemetry run differs from bare" i;
        let recorded =
          match recorder with Some r -> Flight_recorder.recorded r | None -> 0
        in
        let slo_requests =
          match slo with Some s -> (Slo.overall s).Slo.r_requests | None -> 0.0
        in
        let ratio = live_seconds /. bare_seconds in
        Printf.printf
          "pair %d (%s first): bare %.3f s, telemetry %.3f s (%+.1f%% time, \
           %d events recorded, %g requests windowed)\n"
          i
          (if i mod 2 = 0 then "bare" else "telemetry")
          bare_seconds live_seconds
          ((ratio -. 1.0) *. 100.0)
          recorded slo_requests;
        ratio)
  in
  Array.sort Float.compare ratios;
  let overhead = ratios.(pairs / 2) -. 1.0 in
  Printf.printf "median per-pair overhead over %d pairs: %+.1f%%\n" pairs
    (overhead *. 100.0);
  if overhead > 0.05 then
    fail "TOO SLOW: telemetry costs %.1f%% (gate: <= 5%%)" (overhead *. 100.0);
  Printf.printf "telemetry gates hold: %s\n" (if !ok then "yes" else "NO");
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let tables () = reproduction_tables () in
  let ablations () =
    ablation_density ();
    ablation_ambiguity ();
    ablation_index ();
    ablation_join ();
    ablation_adaptive ();
    ablation_top_k ();
    ablation_relation ();
    ablation_batching ();
    generality_models ()
  in
  match mode with
  | "tables" -> tables ()
  | "ablations" -> ablations ()
  | "batch" -> ablation_batching ()
  | "micro" -> run_micro ()
  | "columnar" -> columnar_bench ()
  | "server" -> server_bench ()
  | "telemetry" -> telemetry_bench ()
  | "all" ->
      tables ();
      ablations ();
      run_micro ()
  | other ->
      Printf.eprintf
        "unknown mode %S (expected \
         tables|ablations|batch|micro|columnar|server|telemetry|all)\n"
        other;
      exit 2
