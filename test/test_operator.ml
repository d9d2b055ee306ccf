(* Tests for the online QaQ selection operator (Fig. 1).

   The central property: with the Theorem 3.1 guard on, the reported
   guarantees always satisfy the requirements AND the actual (ground
   truth) precision/recall always dominate the guarantees — for any
   policy, any workload, any requirements. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let req ?(p = 0.9) ?(r = 0.5) ?(l = 50.0) () =
  Quality.requirements ~precision:p ~recall:r ~laxity:l

let run ?(seed = 1) ?(policy = Policy.stingy) ?(enforce = true) ?(batch = 1)
    ~requirements data =
  Operator.run ~rng:(Rng.create seed) ~enforce ~instance:Synthetic.instance
    ~cascade:
      (Cascade.of_driver
         (Probe_driver.of_scalar ~batch_size:batch Synthetic.probe))
    ~policy ~requirements
    (Operator.source_of_array data)

let gen_data ?(seed = 7) ?(total = 1000) ?(f_y = 0.2) ?(f_m = 0.2) () =
  Synthetic.generate (Rng.create seed)
    (Synthetic.config ~total ~f_y ~f_m ~max_laxity:100.0 ())

let test_empty_input () =
  let report = run ~requirements:(req ()) [||] in
  checki "no answer" 0 report.answer_size;
  checkb "meets" true (Quality.meets report.guarantees (req ()));
  checki "no reads" 0 report.counts.reads

let test_zero_recall_reads_nothing () =
  let report = run ~requirements:(req ~r:0.0 ()) (gen_data ()) in
  checki "no reads" 0 report.counts.reads;
  checki "empty answer" 0 report.answer_size;
  checkb "not exhausted" false report.exhausted

let test_perfect_quality_returns_exact_set () =
  (* p_q = r_q = 1 and zero laxity tolerance: the answer must be exactly
     the exact set, fully resolved. *)
  let data = gen_data ~total:500 () in
  let requirements = Quality.requirements ~precision:1.0 ~recall:1.0 ~laxity:0.0 in
  let report = run ~requirements data in
  checki "answer = exact set" (Synthetic.exact_size data) report.answer_size;
  List.iter
    (fun (e : Synthetic.obj Operator.emitted) ->
      checkb "every answer is a true hit" true (Synthetic.in_exact e.obj);
      checkb "fully resolved" true (e.precise || e.obj.laxity = 0.0))
    report.answer;
  checkb "guarantees perfect" true (Quality.meets report.guarantees requirements)

let test_perfect_recall_reads_everything () =
  let data = gen_data ~total:300 () in
  let report = run ~requirements:(req ~r:1.0 ~p:0.5 ~l:100.0 ()) data in
  checki "all read" 300 report.counts.reads;
  checkb "exhausted" true report.exhausted;
  (* No true hit may be missing. *)
  let hits_in_answer =
    List.length (List.filter (fun e -> Synthetic.in_exact e.Operator.obj) report.answer)
  in
  checki "no hit missed" (Synthetic.exact_size data) hits_in_answer

let test_streaming_emit_matches_collection () =
  let data = gen_data ~total:400 () in
  let streamed = ref [] in
  let report =
    Operator.run ~rng:(Rng.create 3) ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
      ~policy:Policy.greedy
      ~requirements:(req ())
      ~emit:(fun e -> streamed := e :: !streamed)
      (Operator.source_of_array data)
  in
  Alcotest.(check int) "same length" report.answer_size (List.length !streamed);
  checkb "same order" true (List.rev !streamed = report.answer)

let test_collect_false () =
  let data = gen_data ~total:200 () in
  let report =
    Operator.run ~rng:(Rng.create 3) ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
      ~policy:Policy.stingy
      ~requirements:(req ()) ~collect:false
      (Operator.source_of_array data)
  in
  checkb "nothing collected" true (report.answer = []);
  checkb "size still counted" true (report.answer_size > 0)

let test_write_accounting () =
  let data = gen_data ~total:500 () in
  let report = run ~policy:Policy.greedy ~requirements:(req ~r:0.9 ()) data in
  let precise, imprecise =
    List.partition (fun e -> e.Operator.precise) report.answer
  in
  checki "imprecise writes" report.counts.writes_imprecise (List.length imprecise);
  checki "precise writes" report.counts.writes_precise (List.length precise);
  checki "answer size" report.answer_size (List.length report.answer);
  checkb "reads bounded" true (report.counts.reads <= 500);
  checkb "probes bounded by reads" true (report.counts.probes <= report.counts.reads)

let test_shared_meter_delta () =
  let meter = Cost_meter.create () in
  let data = gen_data ~total:200 () in
  let r1 =
    Operator.run ~rng:(Rng.create 1) ~meter ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
      ~policy:Policy.stingy
      ~requirements:(req ())
      (Operator.source_of_array data)
  in
  let r2 =
    Operator.run ~rng:(Rng.create 2) ~meter ~instance:Synthetic.instance
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
      ~policy:Policy.stingy
      ~requirements:(req ())
      (Operator.source_of_array data)
  in
  (* Each report covers only its own run; the meter has both. *)
  checki "meter accumulates"
    ((Cost_meter.counts meter).reads)
    (r1.counts.reads + r2.counts.reads)

let test_inconsistent_probe_raises () =
  let data = gen_data ~total:50 ~f_y:0.0 ~f_m:1.0 () in
  let bad_probe (o : Synthetic.obj) = o (* refuses to resolve *) in
  Alcotest.check_raises "unresolved probe detected" Operator.Inconsistent_probe
    (fun () ->
      ignore
        (Operator.run ~rng:(Rng.create 1) ~instance:Synthetic.instance
           ~cascade:(Cascade.of_driver (Probe_driver.scalar bad_probe))
           ~policy:Policy.greedy
           ~requirements:(req ~p:1.0 ~r:1.0 ())
           (Operator.source_of_array data)))

let test_raw_mode_can_violate () =
  (* Greedy without the guard forwards all below-bound MAYBEs; with
     p_q = 0.99 the precision guarantee must end below requirement. *)
  let data = gen_data ~total:2000 () in
  let requirements = req ~p:0.99 ~r:0.5 () in
  let report = run ~policy:Policy.greedy ~enforce:false ~requirements data in
  checkb "violates precision" false
    (Quality.meets report.guarantees requirements);
  (* The same policy with the guard on never violates. *)
  let guarded = run ~policy:Policy.greedy ~enforce:true ~requirements data in
  checkb "guarded version meets" true
    (Quality.meets guarded.guarantees requirements)

let test_zone_map_source_is_sound () =
  (* Interval records, clustered; the pruned columnar scan skips NO
     chunks but guarantees must stay honest w.r.t. the FULL input. *)
  let rng = Rng.create 17 in
  let records =
    Interval_data.uniform_intervals rng ~n:3000
      ~value_range:(Interval.make 0.0 1000.0) ~max_width:30.0
  in
  Array.sort
    (fun (a : Interval_data.record) b -> Float.compare a.truth b.truth)
    records;
  let store = Interval_data.to_store ~chunk_size:64 records in
  let pred = Predicate.ge 850.0 in
  checkb "some chunks pruned" true (Column_store.pruned_chunks store pred > 0);
  let requirements = req ~p:0.9 ~r:0.8 ~l:20.0 () in
  let report =
    Operator.run ~rng ~instance:(Interval_data.instance pred)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Interval_data.probe))
      ~policy:Policy.stingy ~requirements
      (Scan_pipeline.columnar ~prune:true ~store ~of_row:Interval_data.of_row
         ~pred:(Predicate.compile pred) ())
  in
  checkb "meets requirements" true (Quality.meets report.guarantees requirements);
  let answer_in_exact =
    List.length
      (List.filter (fun e -> Interval_data.in_exact pred e.Operator.obj) report.answer)
  in
  let actual_recall =
    Quality.Diagnostics.recall
      ~exact_size:(Interval_data.exact_size pred records)
      ~answer_in_exact
  in
  checkb "actual recall over full input dominates guarantee" true
    (actual_recall >= report.guarantees.recall -. 1e-9)

(* The central soundness property, fuzzed over workload shape,
   requirements and policy parameters. *)
let soundness_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 10000 in
    let* f_y = float_range 0.0 0.5 in
    let* f_m = float_range 0.0 0.5 in
    let* p_q = float_range 0.0 1.0 in
    let* r_q = float_range 0.0 1.0 in
    let* l_q = float_range 0.0 110.0 in
    let* s3 = float_range 0.0 1.0 in
    let* s5 = float_range 0.0 1.0 in
    let* p_py = float_range 0.0 1.0 in
    let* p_fm = float_range 0.0 1.0 in
    return (seed, (f_y, f_m), (p_q, r_q, l_q), (s3, s5, p_py, p_fm)))

let prop_guarantees_sound =
  QCheck2.Test.make
    ~name:"guarantees meet requirements and dominate ground truth" ~count:120
    soundness_gen
    (fun (seed, (f_y, f_m), (p_q, r_q, l_q), (s3, s5, p_py, p_fm)) ->
      let data =
        Synthetic.generate (Rng.create seed)
          (Synthetic.config ~total:400 ~f_y ~f_m ~max_laxity:100.0 ())
      in
      let requirements =
        Quality.requirements ~precision:p_q ~recall:r_q ~laxity:l_q
      in
      let policy = Policy.qaq (Policy.params ~s3 ~s5 ~p_py ~p_fm) in
      let report = run ~seed ~policy ~requirements data in
      let answer_in_exact =
        List.length
          (List.filter (fun e -> Synthetic.in_exact e.Operator.obj) report.answer)
      in
      let actual_p =
        Quality.Diagnostics.precision ~answer_size:report.answer_size
          ~answer_in_exact
      in
      let actual_r =
        Quality.Diagnostics.recall ~exact_size:(Synthetic.exact_size data)
          ~answer_in_exact
      in
      Quality.meets report.guarantees requirements
      && actual_p >= report.guarantees.precision -. 1e-9
      && actual_r >= report.guarantees.recall -. 1e-9
      && report.guarantees.max_laxity <= l_q +. 1e-9)

(* Early termination: under a policy whose per-object actions do not
   depend on r_q (Greedy never prefers Ignore, so the Theorem 3.1 ignore
   guard never changes its trace), a weaker recall bound stops no later.
   For ignore-happy policies reads are genuinely non-monotone in r_q —
   a stricter bound forces forwards that build recall faster. *)
let prop_monotone_cost_in_recall =
  QCheck2.Test.make ~name:"weaker recall never reads more (greedy)" ~count:60
    QCheck2.Gen.(pair (int_range 0 1000) (float_range 0.1 0.9))
    (fun (seed, r_lo) ->
      let data = gen_data ~seed ~total:600 () in
      let reads r =
        (run ~seed:(seed + 1) ~policy:Policy.greedy ~requirements:(req ~r ())
           data)
          .counts.reads
      in
      reads r_lo <= reads (Float.min 1.0 (r_lo +. 0.1)))

(* Scale check: the operator is O(n) with small constants; a 100k-object
   query should complete in well under a second and stay sound. *)
let test_large_input_scales () =
  let data =
    Synthetic.generate (Rng.create 77)
      (Synthetic.config ~total:100_000 ~f_y:0.2 ~f_m:0.2 ())
  in
  let requirements = req ~p:0.9 ~r:0.7 ~l:60.0 () in
  let t0 = Unix.gettimeofday () in
  let report = run ~seed:78 ~policy:Policy.stingy ~requirements data in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "meets at scale" true (Quality.meets report.guarantees requirements);
  checkb "subsecond" true (elapsed < 2.0)

(* ---- batched probing ------------------------------------------------ *)

(* The golden workload the pre-refactor (scalar-closure) operator was run
   on, with its full output hard-coded below.  [Probe_driver.scalar]
   flushes inside [submit], so the batch=1 operator must replay the
   scalar control flow — same RNG stream, same counters, same emission
   order — bit for bit. *)
let golden_data () =
  Synthetic.generate (Rng.create 42)
    (Synthetic.config ~total:2000 ~f_y:0.2 ~f_m:0.3 ~max_laxity:100.0 ())

let golden_requirements =
  Quality.requirements ~precision:0.92 ~recall:0.7 ~laxity:40.0

type golden = {
  g_reads : int;
  g_probes : int;
  g_wi : int;
  g_wp : int;
  g_answer : int;
  g_yes_seen : int;
  g_maybe_ignored : int;
  g_exhausted : bool;
  g_precision : float;
  g_recall : float;
  g_laxity : float;
  g_hash : int;  (** order-sensitive digest of the whole emission *)
  g_first10 : string;
}

(* Captured from the pre-refactor operator (commit before this one) by a
   throwaway driver printing every field below. *)
let goldens =
  [
    ( "stingy",
      Policy.stingy,
      {
        g_reads = 2000;
        g_probes = 545;
        g_wi = 200;
        g_wp = 373;
        g_answer = 573;
        g_yes_seen = 598;
        g_maybe_ignored = 156;
        g_exhausted = true;
        g_precision = 0.92146596858638741;
        g_recall = 0.70026525198938994;
        g_laxity = 39.836905277424947;
        g_hash = 1066082672;
        g_first10 = "1I;6P;7I;10P;12P;13I;15P;23P;24P;25P";
      } );
    ( "greedy",
      Policy.greedy,
      {
        g_reads = 1750;
        g_probes = 663;
        g_wi = 187;
        g_wp = 449;
        g_answer = 636;
        g_yes_seen = 586;
        g_maybe_ignored = 0;
        g_exhausted = false;
        g_precision = 0.92138364779874216;
        g_recall = 0.70095693779904311;
        g_laxity = 39.836905277424947;
        g_hash = 937554316;
        g_first10 = "1I;6P;7I;8P;10P;12P;13I;14P;15P;16P";
      } );
    ( "region",
      Policy.qaq (Policy.params ~s3:0.6 ~s5:0.3 ~p_py:0.5 ~p_fm:0.5),
      {
        g_reads = 2000;
        g_probes = 534;
        g_wi = 192;
        g_wp = 418;
        g_answer = 610;
        g_yes_seen = 648;
        g_maybe_ignored = 170;
        g_exhausted = true;
        g_precision = 0.93934426229508194;
        g_recall = 0.70048899755501226;
        g_laxity = 39.851900579220114;
        g_hash = 20894045;
        g_first10 = "1I;6P;7I;10P;12P;13I;14P;15P;16P;24P";
      } );
  ]

let emission_of report =
  List.map
    (fun (e : Synthetic.obj Operator.emitted) ->
      (e.obj.Synthetic.id, e.precise))
    report.Operator.answer

let emission_hash emission =
  List.fold_left
    (fun acc (id, p) ->
      ((acc * 1000003) + (id * 2) + (if p then 1 else 0)) land 0x3FFFFFFF)
    17 emission

let emission_first10 emission =
  String.concat ";"
    (List.map
       (fun (id, p) -> Printf.sprintf "%d%c" id (if p then 'P' else 'I'))
       (List.filteri (fun i _ -> i < 10) emission))

let test_batch1_reproduces_scalar () =
  let data = golden_data () in
  List.iter
    (fun (name, policy, g) ->
      let report =
        Operator.run ~rng:(Rng.create 7) ~instance:Synthetic.instance
          ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
          ~policy
          ~requirements:golden_requirements
          (Operator.source_of_array data)
      in
      let emission = emission_of report in
      let chk l = Alcotest.check Alcotest.int (name ^ " " ^ l) in
      chk "reads" g.g_reads report.counts.reads;
      chk "probes" g.g_probes report.counts.probes;
      (* The scalar driver dispatches one batch per probe. *)
      chk "batches" g.g_probes report.counts.batches;
      chk "writes imprecise" g.g_wi report.counts.writes_imprecise;
      chk "writes precise" g.g_wp report.counts.writes_precise;
      chk "answer size" g.g_answer report.answer_size;
      chk "yes seen" g.g_yes_seen report.yes_seen;
      chk "maybe ignored" g.g_maybe_ignored report.maybe_ignored;
      checkb (name ^ " exhausted") g.g_exhausted report.exhausted;
      let chkf l = Alcotest.check (Alcotest.float 0.0) (name ^ " " ^ l) in
      chkf "precision" g.g_precision report.guarantees.precision;
      chkf "recall" g.g_recall report.guarantees.recall;
      chkf "laxity" g.g_laxity report.guarantees.max_laxity;
      chk "emission digest" g.g_hash (emission_hash emission);
      Alcotest.check Alcotest.string (name ^ " emission head") g.g_first10
        (emission_first10 emission))
    goldens

let test_batched_guarantees_hold_throughout () =
  (* For every batch size, the requirements must hold at the end AND the
     progressive (per-settlement) precision/laxity guarantees must never
     dip below/above the bounds: flush points included. *)
  let data = golden_data () in
  List.iter
    (fun batch ->
      let violated = ref 0 in
      let report =
        Operator.run ~rng:(Rng.create 7) ~instance:Synthetic.instance
          ~cascade:
            (Cascade.of_driver
               (Probe_driver.of_scalar ~batch_size:batch Synthetic.probe))
          ~policy:Policy.stingy ~requirements:golden_requirements
          ~on_progress:(fun ~reads:_ (g : Quality.guarantees) ->
            if
              g.precision < golden_requirements.Quality.precision -. 1e-9
              || g.max_laxity > golden_requirements.Quality.laxity +. 1e-9
            then incr violated)
          (Operator.source_of_array data)
      in
      let name = Printf.sprintf "B=%d" batch in
      checki (name ^ " no mid-run violation") 0 !violated;
      checkb (name ^ " meets requirements") true
        (Quality.meets report.guarantees golden_requirements);
      (* Batch accounting: every batch has at most [batch] probes and the
         batch count is at least ceil(probes/batch). *)
      let min_batches =
        (report.counts.probes + batch - 1) / batch
      in
      checkb (name ^ " batch count sane") true
        (report.counts.probes = 0
        || (report.counts.batches >= min_batches
           && report.counts.batches <= report.counts.probes)))
    [ 1; 4; 16; 64 ]

let test_batching_reduces_cost_with_setup_charge () =
  (* With a per-batch setup charge c_b > 0, batching must pay: the total
     metered cost strictly decreases from B=1 to B=16 on a probe-heavy
     run. *)
  let data = golden_data () in
  let model = Cost_model.make ~c_r:1.0 ~c_p:100.0 ~c_wi:1.0 ~c_wp:1.0
      ~c_b:50.0 ()
  in
  let cost_at batch =
    let report =
      Operator.run ~rng:(Rng.create 7) ~instance:Synthetic.instance
        ~cascade:
          (Cascade.of_driver
             (Probe_driver.of_scalar ~batch_size:batch Synthetic.probe))
        ~policy:Policy.stingy ~requirements:golden_requirements
        (Operator.source_of_array data)
    in
    Operator.cost model report
  in
  let w1 = cost_at 1 and w4 = cost_at 4 and w16 = cost_at 16 in
  checkb "B=4 cheaper than B=1" true (w4 < w1);
  checkb "B=16 cheaper than B=4" true (w16 < w4)

(* The operator fills the whole degradation record itself: on the
   faulted standard workload a direct [Operator.run] reports the wasted
   cost, post-degradation guarantees and requirements verdict that
   [Engine.execute] reports for the same run (Fixed planning on one
   lane, the same policy rng stream, fault plan and cost model). *)
let test_degradation_matches_engine () =
  let data = Standard_workload.data () in
  let requirements = Standard_workload.requirements in
  let cost = { Cost_model.paper with Cost_model.c_b = 64.0 } in
  let params = Policy.greedy_params in
  let driver () =
    let faults =
      Fault_plan.make ~seed:1337 ~permanent_rate:0.2 ~transient_rate:0.1
        ~max_retries:2 ()
    in
    Probe_source.driver ~batch_size:16
      (Probe_source.create ~max_retries:2 ~faults Synthetic.probe)
  in
  let engine =
    Engine.execute ~rng:(Rng.create Standard_workload.engine_seed)
      ~planning:(Engine.Fixed params) ~cost ~domains:1
      ~instance:Synthetic.instance ~probe:(driver ()) ~requirements data
  in
  let rng = Rng.create Standard_workload.engine_seed in
  (* The engine splits its sampling stream off first, planning or not. *)
  ignore (Rng.split rng);
  let direct =
    (Operator.run ~rng ~instance:Synthetic.instance
       ~cascade:(Cascade.of_driver ~cost (driver ()))
       ~policy:(Policy.qaq params) ~requirements
       (Operator.source_of_array data))
      .degraded
  in
  let d = engine.Engine.degradation in
  checkb "failures happened" true (direct.failed_attempts > 0);
  checki "same failed attempts" d.failed_attempts direct.failed_attempts;
  Alcotest.(check (float 0.0))
    "same wasted cost" d.wasted_cost direct.wasted_cost;
  checkb "same guarantees after" true
    (d.guarantees_after = direct.guarantees_after);
  checkb "same requirements verdict" d.requirements_met
    direct.requirements_met

let suite =
  [
    ("empty input", `Quick, test_empty_input);
    ("zero recall reads nothing", `Quick, test_zero_recall_reads_nothing);
    ("perfect quality returns the exact set", `Quick, test_perfect_quality_returns_exact_set);
    ("perfect recall reads everything", `Quick, test_perfect_recall_reads_everything);
    ("streaming emit matches collection", `Quick, test_streaming_emit_matches_collection);
    ("collect=false", `Quick, test_collect_false);
    ("write accounting", `Quick, test_write_accounting);
    ("shared meter reports deltas", `Quick, test_shared_meter_delta);
    ("inconsistent probe raises", `Quick, test_inconsistent_probe_raises);
    ("raw mode can violate, guarded cannot", `Quick, test_raw_mode_can_violate);
    ("zone-map source stays sound", `Quick, test_zone_map_source_is_sound);
    ("degradation matches the engine's", `Quick,
     test_degradation_matches_engine);
    ("batch=1 reproduces the scalar operator", `Quick,
     test_batch1_reproduces_scalar);
    ("batched guarantees hold at every flush point", `Quick,
     test_batched_guarantees_hold_throughout);
    ("batching reduces cost under a setup charge", `Quick,
     test_batching_reduces_cost_with_setup_charge);
    QCheck_alcotest.to_alcotest prop_guarantees_sound;
    QCheck_alcotest.to_alcotest prop_monotone_cost_in_recall;
    ("large input scales", `Slow, test_large_input_scales);
  ]
