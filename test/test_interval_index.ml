(* Tests for the interval index access method. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let records seed n max_width =
  let rng = Rng.create seed in
  Interval_data.uniform_intervals rng ~n
    ~value_range:(Interval.make 0.0 1000.0) ~max_width

let support (r : Interval_data.record) = Uncertain.support r.belief

let test_threshold_candidates () =
  let rs = records 1 500 40.0 in
  let idx = Interval_index.build rs ~support in
  checki "index size" 500 (Interval_index.length idx);
  let pred = Predicate.ge 800.0 in
  let cands = Interval_index.candidates idx pred in
  (* Exactly the non-NO objects, each once. *)
  let expected =
    Array.to_list rs
    |> List.filter (fun r ->
           not (Tvl.equal (Predicate.classify pred r.Interval_data.belief) Tvl.No))
    |> List.length
  in
  checki "candidate count" expected (Array.length cands);
  checki "count function agrees" expected (Interval_index.candidate_count idx pred);
  checki "pruned complement" (500 - expected) (Interval_index.pruned_count idx pred);
  Array.iter
    (fun (r : Interval_data.record) ->
      checkb "no definite NO among candidates" false
        (Tvl.equal (Predicate.classify pred r.belief) Tvl.No))
    cands

let test_unsatisfiable_predicate () =
  let rs = records 2 100 20.0 in
  let idx = Interval_index.build rs ~support in
  let impossible = Predicate.(ge 10.0 &&& le 5.0) in
  checki "no candidates" 0 (Interval_index.candidate_count idx impossible);
  let everything = Predicate.(ge 10.0 ||| lt 10.0) in
  checki "all candidates" 100 (Interval_index.candidate_count idx everything)

(* The index must agree exactly with brute-force classification for
   arbitrary compound predicates, including multi-component satisfying
   sets. *)
let pred_gen =
  QCheck2.Gen.(
    let leaf =
      oneof
        [
          map (fun a -> Predicate.ge (float_of_int a)) (int_range 0 1000);
          map (fun a -> Predicate.le (float_of_int a)) (int_range 0 1000);
          (let* a = int_range 0 900 in
           let* w = int_range 0 200 in
           return (Predicate.between (float_of_int a) (float_of_int (a + w))));
        ]
    in
    let* a = leaf and* b = leaf and* c = leaf in
    oneofl
      [ a; Predicate.Or (a, b); Predicate.And (a, b);
        Predicate.Or (Predicate.And (a, b), c); Predicate.Not a;
        Predicate.Or (a, Predicate.Not b) ])

let prop_index_matches_scan =
  QCheck2.Test.make ~name:"index candidates = scan candidates" ~count:150
    QCheck2.Gen.(pair (int_range 0 5000) pred_gen)
    (fun (seed, pred) ->
      let rs = records seed 200 30.0 in
      let idx = Interval_index.build rs ~support in
      let by_index =
        Interval_index.candidates idx pred
        |> Array.to_list
        |> List.map (fun (r : Interval_data.record) -> r.id)
        |> List.sort compare
      in
      let by_scan =
        Array.to_list rs
        |> List.filter (fun (r : Interval_data.record) ->
               not (Tvl.equal (Predicate.classify pred r.belief) Tvl.No))
        |> List.map (fun (r : Interval_data.record) -> r.id)
        |> List.sort compare
      in
      by_index = by_scan)

let test_operator_over_index_source () =
  (* Full pipeline: index candidates -> operator; guarantees stay honest
     against the FULL relation's ground truth. *)
  let rs = records 11 2000 25.0 in
  let pred = Predicate.ge 900.0 in
  let idx = Interval_index.build rs ~support in
  let cands = Interval_index.candidates idx pred in
  let requirements = Quality.requirements ~precision:0.95 ~recall:0.9 ~laxity:10.0 in
  let rng = Rng.create 12 in
  let report =
    Operator.run ~rng ~instance:(Interval_data.instance pred)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Interval_data.probe))
      ~policy:Policy.stingy
      ~requirements
      (Operator.source_of_array cands)
  in
  checkb "meets" true (Quality.meets report.guarantees requirements);
  let answer_in_exact =
    List.length
      (List.filter (fun e -> Interval_data.in_exact pred e.Operator.obj) report.answer)
  in
  let actual_recall =
    Quality.Diagnostics.recall
      ~exact_size:(Interval_data.exact_size pred rs)
      ~answer_in_exact
  in
  checkb "recall honest over full relation" true
    (actual_recall >= report.guarantees.recall -. 1e-9);
  checkb "index saved most reads" true (report.counts.reads < 500)

let test_empty_index () =
  let idx = Interval_index.build [||] ~support in
  checki "empty" 0 (Interval_index.length idx);
  checki "no candidates" 0 (Interval_index.candidate_count idx (Predicate.ge 0.0))

let suite =
  [
    ("threshold candidates", `Quick, test_threshold_candidates);
    ("unsatisfiable and tautological predicates", `Quick, test_unsatisfiable_predicate);
    QCheck_alcotest.to_alcotest prop_index_matches_scan;
    ("operator over index source", `Quick, test_operator_over_index_source);
    ("empty index", `Quick, test_empty_index);
  ]
