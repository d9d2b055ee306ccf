(* Tests for the scalar imprecision models. *)

let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal
let checkf tol = Alcotest.(check (float tol))

let test_laxity () =
  checkf 0.0 "exact" 0.0 (Uncertain.laxity (Uncertain.exact 5.0));
  checkf 0.0 "interval" 4.0 (Uncertain.laxity (Uncertain.interval 1.0 5.0));
  checkf 0.0 "gaussian = stddev" 2.0
    (Uncertain.laxity (Uncertain.gaussian ~mean:0.0 ~stddev:2.0 ()))

let test_support () =
  let g = Uncertain.gaussian ~mean:10.0 ~stddev:2.0 () in
  let s = Uncertain.support g in
  checkf 1e-12 "gaussian support lo" 2.0 (Interval.lo s);
  checkf 1e-12 "gaussian support hi" 18.0 (Interval.hi s);
  let e = Uncertain.support (Uncertain.exact 3.0) in
  Alcotest.(check bool) "exact support is a point" true (Interval.is_point e)

let test_constructor_errors () =
  Alcotest.check_raises "bad stddev"
    (Invalid_argument "Uncertain.gaussian: stddev <= 0") (fun () ->
      ignore (Uncertain.gaussian ~mean:0.0 ~stddev:0.0 ()));
  Alcotest.check_raises "non-finite exact"
    (Invalid_argument "Uncertain.exact: not finite") (fun () ->
      ignore (Uncertain.exact Float.infinity))

let test_classification () =
  let i = Uncertain.interval 1.0 3.0 in
  Alcotest.check tvl "interval maybe" Tvl.Maybe (Predicate.classify (Predicate.ge 2.0) i);
  let e = Uncertain.exact 5.0 in
  Alcotest.check tvl "exact yes" Tvl.Yes (Predicate.classify (Predicate.ge 4.0) e);
  Alcotest.check tvl "exact no" Tvl.No (Predicate.classify (Predicate.ge 6.0) e);
  let g = Uncertain.gaussian ~mean:0.0 ~stddev:1.0 () in
  Alcotest.check tvl "gaussian far below threshold" Tvl.No
    (Predicate.classify (Predicate.ge 5.0) g);
  Alcotest.check tvl "gaussian far above threshold" Tvl.Yes
    (Predicate.classify (Predicate.ge (-5.0)) g);
  Alcotest.check tvl "gaussian near mean" Tvl.Maybe (Predicate.classify (Predicate.ge 0.0) g)

let test_success_gaussian () =
  let g = Uncertain.gaussian ~mean:0.0 ~stddev:1.0 () in
  checkf 1e-7 "ge mean = 0.5" 0.5 (Predicate.success (Predicate.ge 0.0) g);
  checkf 2e-7 "ge one sigma" (1.0 -. 0.8413447) (Predicate.success (Predicate.ge 1.0) g);
  checkf 1e-7 "le mean" 0.5 (Predicate.success (Predicate.le 0.0) g);
  checkf 1e-6 "between symmetric" 0.6826895 (Uncertain.success_between g (-1.0) 1.0);
  checkf 0.0 "between reversed" 0.0 (Uncertain.success_between g 1.0 (-1.0))

let test_success_interval_uniform () =
  let i = Uncertain.interval 0.0 10.0 in
  checkf 1e-12 "ge 7.5" 0.25 (Predicate.success (Predicate.ge 7.5) i);
  checkf 1e-12 "le 2.5" 0.25 (Predicate.success (Predicate.le 2.5) i);
  checkf 1e-12 "between" 0.5 (Uncertain.success_between i 2.5 7.5)

let uncertain_gen =
  QCheck2.Gen.(
    oneof
      [
        map Uncertain.exact (float_range (-50.0) 50.0);
        (let* lo = float_range (-50.0) 50.0 in
         let* w = float_range 0.001 30.0 in
         return (Uncertain.interval lo (lo +. w)));
        (let* mean = float_range (-50.0) 50.0 in
         let* stddev = float_range 0.01 10.0 in
         return (Uncertain.gaussian ~mean ~stddev ()));
      ])

let prop_sample_in_support =
  QCheck2.Test.make ~name:"samples stay in support" ~count:300 uncertain_gen
    (fun u ->
      let rng = Rng.create 17 in
      let ok = ref true in
      for _ = 1 to 20 do
        if not (Interval.contains (Uncertain.support u) (Uncertain.sample rng u))
        then ok := false
      done;
      !ok)

let prop_classification_consistent_with_support =
  QCheck2.Test.make ~name:"classification agrees with support interval"
    ~count:300
    QCheck2.Gen.(pair uncertain_gen (float_range (-80.0) 80.0))
    (fun (u, x) ->
      Tvl.equal (Predicate.classify (Predicate.ge x) u)
        (let s = Uncertain.support u in
         if Interval.lo s >= x then Tvl.Yes
         else if Interval.hi s < x then Tvl.No
         else Tvl.Maybe))

let prop_success_bounds =
  QCheck2.Test.make ~name:"success in [0,1] for every model" ~count:300
    QCheck2.Gen.(pair uncertain_gen (float_range (-80.0) 80.0))
    (fun (u, x) ->
      let ok p = p >= 0.0 && p <= 1.0 in
      ok (Predicate.success (Predicate.ge x) u)
      && ok (Predicate.success (Predicate.le x) u)
      && ok (Uncertain.success_between u x (x +. 5.0)))

let suite =
  [
    ("laxity per model", `Quick, test_laxity);
    ("support", `Quick, test_support);
    ("constructor errors", `Quick, test_constructor_errors);
    ("classification", `Quick, test_classification);
    ("gaussian success", `Quick, test_success_gaussian);
    ("interval success", `Quick, test_success_interval_uniform);
    QCheck_alcotest.to_alcotest prop_sample_in_support;
    QCheck_alcotest.to_alcotest prop_classification_consistent_with_support;
    QCheck_alcotest.to_alcotest prop_success_bounds;
  ]
