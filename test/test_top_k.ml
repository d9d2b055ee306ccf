(* Tests for quality-aware top-k selection. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal

let record id lo hi truth : Interval_data.record =
  {
    id;
    belief = (if lo = hi then Uncertain.exact lo else Uncertain.interval lo hi);
    truth;
  }

let test_classify_simple () =
  (* Three well-separated records: top-1 is certain. *)
  let records =
    [| record 0 90.0 95.0 92.0; record 1 50.0 55.0 52.0; record 2 10.0 15.0 12.0 |]
  in
  let v = Top_k.classify ~k:1 records in
  Alcotest.check tvl "best certain" Tvl.Yes v.(0);
  Alcotest.check tvl "middle out" Tvl.No v.(1);
  Alcotest.check tvl "worst out" Tvl.No v.(2);
  (* With k = 2 the middle joins. *)
  let v = Top_k.classify ~k:2 records in
  Alcotest.check tvl "middle in for k=2" Tvl.Yes v.(1)

let test_classify_overlap () =
  let records =
    [| record 0 80.0 100.0 90.0; record 1 75.0 95.0 85.0; record 2 0.0 10.0 5.0 |]
  in
  let v = Top_k.classify ~k:1 records in
  Alcotest.check tvl "contender maybe" Tvl.Maybe v.(0);
  Alcotest.check tvl "contender maybe too" Tvl.Maybe v.(1);
  Alcotest.check tvl "far below out" Tvl.No v.(2)

let test_classify_k_equals_n () =
  let records = [| record 0 0.0 10.0 5.0; record 1 0.0 10.0 6.0 |] in
  let v = Top_k.classify ~k:2 records in
  Alcotest.check tvl "everyone in" Tvl.Yes v.(0);
  Alcotest.check tvl "everyone in (2)" Tvl.Yes v.(1);
  Alcotest.check_raises "k = 0" (Invalid_argument "Top_k.classify: k out of range")
    (fun () -> ignore (Top_k.classify ~k:0 records))

let test_ties_break_by_id () =
  (* Two identical exact values: the smaller id wins the spot. *)
  let records = [| record 0 5.0 5.0 5.0; record 1 5.0 5.0 5.0 |] in
  let v = Top_k.classify ~k:1 records in
  Alcotest.check tvl "smaller id certain" Tvl.Yes v.(0);
  Alcotest.check tvl "larger id out" Tvl.No v.(1);
  let top = Top_k.exact_top_k ~k:1 records in
  checki "ground truth agrees" 0 (List.hd top).id

let random_records seed n =
  Interval_data.uniform_intervals (Rng.create seed) ~n
    ~value_range:(Interval.make 0.0 1000.0) ~max_width:60.0

(* Certified members really are top-k members — the central soundness
   property, fuzzed. *)
let prop_certified_sound =
  QCheck2.Test.make ~name:"certified members are truly in the top-k" ~count:150
    QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 40))
    (fun (seed, k) ->
      let records = random_records seed 120 in
      let verdicts = Top_k.classify ~k records in
      let truth_ids =
        Top_k.exact_top_k ~k records
        |> List.map (fun (r : Interval_data.record) -> r.id)
      in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          match (v : Tvl.t) with
          | Tvl.Yes -> if not (List.mem records.(i).id truth_ids) then ok := false
          | Tvl.No -> if List.mem records.(i).id truth_ids then ok := false
          | Tvl.Maybe -> ())
        verdicts;
      !ok)

let test_run_meets_requirements () =
  let records = random_records 7 500 in
  let requirements = Quality.requirements ~precision:1.0 ~recall:0.8 ~laxity:20.0 in
  let report = Top_k.run ~requirements ~k:25 records in
  checkb "meets" true (Quality.meets report.guarantees requirements);
  checki "reads everything once" 500 report.counts.reads;
  checkb "certified enough" true (float_of_int report.certified >= 0.8 *. 25.0);
  (* Every answered record is truly top-k. *)
  let truth_ids =
    Top_k.exact_top_k ~k:25 records
    |> List.map (fun (r : Interval_data.record) -> r.id)
  in
  List.iter
    (fun (r : Interval_data.record) ->
      checkb "member sound" true (List.mem r.id truth_ids);
      checkb "laxity bound" true (Uncertain.laxity r.belief <= 20.0))
    report.answer

let test_run_perfect_recall_is_exact () =
  let records = random_records 8 300 in
  let requirements = Quality.requirements ~precision:1.0 ~recall:1.0 ~laxity:0.0 in
  let report = Top_k.run ~requirements ~k:20 records in
  checki "exactly k members" 20 report.certified;
  let expected =
    Top_k.exact_top_k ~k:20 records
    |> List.map (fun (r : Interval_data.record) -> r.id)
    |> List.sort compare
  in
  let got =
    report.answer
    |> List.map (fun (r : Interval_data.record) -> r.id)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "the exact top-k" expected got;
  (* All answered precise. *)
  List.iter
    (fun (r : Interval_data.record) ->
      checkb "resolved" true (Uncertain.laxity r.belief = 0.0))
    report.answer

let test_probe_savings_scale_with_recall () =
  let records = random_records 9 800 in
  let probes r_q =
    let requirements = Quality.requirements ~precision:1.0 ~recall:r_q ~laxity:1000.0 in
    (Top_k.run ~requirements ~k:40 records).counts.probes
  in
  let p_low = probes 0.3 and p_mid = probes 0.7 and p_full = probes 1.0 in
  checkb "monotone" true (p_low <= p_mid && p_mid <= p_full);
  checkb "partial recall saves probes" true (p_low < p_full);
  (* Even the exact answer probes far fewer than all records. *)
  checkb "never probes everything" true (p_full < 800)

let test_zero_recall_no_probes () =
  let records = random_records 10 100 in
  let requirements = Quality.requirements ~precision:1.0 ~recall:0.0 ~laxity:50.0 in
  let report = Top_k.run ~requirements ~k:10 records in
  checki "no probes needed" 0 report.counts.probes

let suite =
  [
    ("classify well separated", `Quick, test_classify_simple);
    ("classify overlapping", `Quick, test_classify_overlap);
    ("classify k = n and errors", `Quick, test_classify_k_equals_n);
    ("ties break by id", `Quick, test_ties_break_by_id);
    QCheck_alcotest.to_alcotest prop_certified_sound;
    ("run meets requirements", `Quick, test_run_meets_requirements);
    ("perfect recall is the exact top-k", `Quick, test_run_perfect_recall_is_exact);
    ("probe savings scale with recall", `Quick, test_probe_savings_scale_with_recall);
    ("zero recall probes nothing", `Quick, test_zero_recall_no_probes);
  ]
