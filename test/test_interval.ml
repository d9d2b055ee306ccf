(* Unit and property tests for intervals. *)

(* The verdict and success probability of [value >= x] for an interval
   object, through the predicate layer (the interval's own module
   answers the [<=] direction). *)
let classify_ge i x = Predicate.classify_interval (Predicate.ge x) i
let success_ge i x = Predicate.success (Predicate.ge x) (Uncertain.Interval i)

let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal
let checkf = Alcotest.(check (float 1e-12))

let test_make_errors () =
  Alcotest.check_raises "reversed" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (Interval.make 2.0 1.0));
  Alcotest.check_raises "nan"
    (Invalid_argument "Interval.make: bounds must be finite") (fun () ->
      ignore (Interval.make Float.nan 1.0))

let test_basic_accessors () =
  let i = Interval.make 2.0 6.0 in
  checkf "lo" 2.0 (Interval.lo i);
  checkf "hi" 6.0 (Interval.hi i);
  checkf "width" 4.0 (Interval.width i);
  Alcotest.(check bool) "not a point" false (Interval.is_point i);
  Alcotest.(check bool) "point" true (Interval.is_point (Interval.point 3.0))

let test_set_operations () =
  let a = Interval.make 0.0 5.0 and b = Interval.make 3.0 8.0 in
  Alcotest.(check bool) "intersects" true (Interval.intersects a b);
  (match Interval.intersection a b with
  | Some i ->
      checkf "inter lo" 3.0 (Interval.lo i);
      checkf "inter hi" 5.0 (Interval.hi i)
  | None -> Alcotest.fail "expected intersection");
  let c = Interval.make 6.0 7.0 in
  Alcotest.(check bool) "disjoint" false (Interval.intersects a c);
  Alcotest.(check bool) "disjoint intersection" true
    (Interval.intersection a c = None);
  Alcotest.(check bool) "subset" true
    (Interval.subset (Interval.make 1.0 2.0) a);
  Alcotest.(check bool) "not subset" false (Interval.subset b a)

let test_classification () =
  let i = Interval.make 1.0 3.0 in
  Alcotest.check tvl "ge below" Tvl.Yes (classify_ge i 0.5);
  Alcotest.check tvl "ge at lo" Tvl.Yes (classify_ge i 1.0);
  Alcotest.check tvl "ge inside" Tvl.Maybe (classify_ge i 2.0);
  Alcotest.check tvl "ge above" Tvl.No (classify_ge i 3.5);
  Alcotest.check tvl "le above" Tvl.Yes (Interval.classify_le i 3.0);
  Alcotest.check tvl "le inside" Tvl.Maybe (Interval.classify_le i 1.5);
  Alcotest.check tvl "le below" Tvl.No (Interval.classify_le i 0.5)

let test_paper_success_example () =
  (* §1: o1 = [1,3] with λ = (o >= 2): s = (3-2)/(3-1) = 0.5. *)
  let o1 = Interval.make 1.0 3.0 in
  checkf "paper example" 0.5 (success_ge o1 2.0);
  (* o2 = [3,4] is YES, o3 = [-2,-1] is NO. *)
  Alcotest.check tvl "o2 yes" Tvl.Yes (classify_ge (Interval.make 3.0 4.0) 2.0);
  Alcotest.check tvl "o3 no" Tvl.No (classify_ge (Interval.make (-2.0) (-1.0)) 2.0)

let test_success_degenerate () =
  let p = Interval.point 5.0 in
  checkf "point satisfying" 1.0 (success_ge p 5.0);
  checkf "point failing" 0.0 (success_ge p 6.0);
  checkf "between point in" 1.0 (Interval.success_between p 4.0 6.0);
  checkf "between point out" 0.0 (Interval.success_between p 6.0 7.0);
  checkf "between reversed bounds" 0.0
    (Interval.success_between (Interval.make 0.0 1.0) 2.0 1.0)

(* Properties over random intervals. *)

let interval_gen =
  QCheck2.Gen.(
    let* lo = float_range (-100.0) 100.0 in
    let* w = float_range 0.0 50.0 in
    return (Interval.make lo (lo +. w)))

let prop_sample_within =
  QCheck2.Test.make ~name:"sample lies within interval" ~count:500 interval_gen
    (fun i ->
      let rng = Rng.create 33 in
      let x = Interval.sample rng i in
      Interval.contains i x)

let prop_success_bounds =
  QCheck2.Test.make ~name:"success probabilities lie in [0,1]" ~count:500
    QCheck2.Gen.(pair interval_gen (float_range (-150.0) 150.0))
    (fun (i, x) ->
      let ok p = p >= 0.0 && p <= 1.0 in
      ok (success_ge i x)
      && ok (Interval.success_le i x)
      && ok (Interval.success_between i x (x +. 10.0)))

let prop_success_matches_classification =
  QCheck2.Test.make ~name:"classification extremes match success" ~count:500
    QCheck2.Gen.(pair interval_gen (float_range (-150.0) 150.0))
    (fun (i, x) ->
      match classify_ge i x with
      | Tvl.Yes -> success_ge i x = 1.0
      | Tvl.No -> success_ge i x = 0.0
      | Tvl.Maybe ->
          let s = success_ge i x in
          s >= 0.0 && s <= 1.0)

let prop_ge_le_complement =
  QCheck2.Test.make ~name:"success_ge + success_le = 1 (continuous)" ~count:500
    QCheck2.Gen.(pair interval_gen (float_range (-150.0) 150.0))
    (fun (i, x) ->
      QCheck2.assume (not (Interval.is_point i));
      Float.abs (success_ge i x +. Interval.success_le i x -. 1.0)
      < 1e-9)

let suite =
  [
    ("constructor errors", `Quick, test_make_errors);
    ("accessors", `Quick, test_basic_accessors);
    ("set operations", `Quick, test_set_operations);
    ("classification", `Quick, test_classification);
    ("paper success example", `Quick, test_paper_success_example);
    ("degenerate success", `Quick, test_success_degenerate);
    QCheck_alcotest.to_alcotest prop_sample_within;
    QCheck_alcotest.to_alcotest prop_success_bounds;
    QCheck_alcotest.to_alcotest prop_success_matches_classification;
    QCheck_alcotest.to_alcotest prop_ge_le_complement;
  ]
