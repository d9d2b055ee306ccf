(* Tests for the time-series substrate: series, PAA sketches and
   similarity queries over sketches. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))

let ts a = Time_series.of_array a

let test_series_basics () =
  let s = ts [| 1.0; 2.0; 3.0 |] in
  checki "length" 3 (Time_series.length s);
  checkf 0.0 "get" 2.0 (Time_series.get s 1);
  checkf 1e-12 "distance" (sqrt 3.0)
    (Time_series.euclidean_distance s (ts [| 2.0; 3.0; 4.0 |]));
  checkf 0.0 "distance to self" 0.0 (Time_series.euclidean_distance s s);
  Alcotest.check_raises "empty" (Invalid_argument "Time_series.of_array: empty")
    (fun () -> ignore (ts [||]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Time_series.euclidean_distance: length mismatch")
    (fun () ->
      ignore (Time_series.euclidean_distance s (ts [| 1.0 |])))

let test_motif () =
  let base = ts (Array.make 10 0.0) in
  let motif = ts [| 1.0; 2.0 |] in
  let m = Time_series.with_motif (Rng.create 1) ~base ~motif ~at:3 ~amplitude:2.0 in
  checkf 0.0 "before" 0.0 (Time_series.get m 2);
  checkf 0.0 "first" 2.0 (Time_series.get m 3);
  checkf 0.0 "second" 4.0 (Time_series.get m 4);
  checkf 0.0 "after" 0.0 (Time_series.get m 5);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Time_series.with_motif: bounds") (fun () ->
      ignore (Time_series.with_motif (Rng.create 1) ~base ~motif ~at:9 ~amplitude:1.0))

let test_paa_segments () =
  let s = ts [| 1.0; 3.0; 5.0; 7.0; 2.0; 2.0; 8.0; 0.0 |] in
  let p = Paa.compress ~segments:4 s in
  (* Three floats (mean, min, max) per segment over eight points. *)
  checkf 1e-12 "ratio" 1.5 (Paa.compression_ratio p);
  (* Segment envelopes [1,3] [5,7] [2,2] [0,8], two points each: against
     the zero query every point is at least its segment's min away and at
     most its max. *)
  let b = Paa.distance_bounds p (ts (Array.make 8 0.0)) in
  checkf 1e-12 "lower bound from the mins" (sqrt 60.0) (Interval.lo b);
  checkf 1e-12 "upper bound from the maxs" (sqrt 252.0) (Interval.hi b);
  (* The original series is inside every envelope. *)
  checkf 0.0 "series itself" 0.0 (Interval.lo (Paa.distance_bounds p s))

let test_paa_uneven_lengths () =
  (* 10 points over 3 segments: sizes 3/3/4 (floor boundaries). *)
  let s = ts (Array.init 10 float_of_int) in
  let p = Paa.compress ~segments:3 s in
  checkf 1e-12 "three segments" 0.9 (Paa.compression_ratio p);
  checkf 0.0 "series itself" 0.0 (Interval.lo (Paa.distance_bounds p s));
  Alcotest.check_raises "too many segments"
    (Invalid_argument "Paa.compress: segments") (fun () ->
      ignore (Paa.compress ~segments:11 s))

let random_series rng n =
  Time_series.random_walk rng ~length:n ~start:0.0 ~step_stddev:1.0

(* The load-bearing property: distance bounds always bracket the true
   distance, and bracket 0 for the series itself (every value lies in its
   segment's envelope). *)
let prop_paa_bounds_sound =
  QCheck2.Test.make ~name:"PAA distance/value bounds contain the truth"
    ~count:200
    QCheck2.Gen.(triple (int_range 0 5000) (int_range 8 128) (int_range 1 8))
    (fun (seed, n, segs) ->
      let rng = Rng.create seed in
      let series = random_series rng n in
      let query = random_series rng n in
      let sketch = Paa.compress ~segments:(Stdlib.min segs n) series in
      let bounds = Paa.distance_bounds sketch query in
      let true_distance = Time_series.euclidean_distance series query in
      Interval.contains bounds true_distance
      && Interval.lo (Paa.distance_bounds sketch series) = 0.0)

let prop_more_segments_tighter =
  QCheck2.Test.make ~name:"finer sketches give tighter distance bounds"
    ~count:100
    QCheck2.Gen.(pair (int_range 0 5000) (int_range 32 128))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let series = random_series rng n in
      let query = random_series rng n in
      let width segs =
        Interval.width (Paa.distance_bounds (Paa.compress ~segments:segs series) query)
      in
      width 16 <= width 4 +. 1e-9)

let test_ts_query_classification () =
  let rng = Rng.create 9 in
  let pattern = random_series rng 64 in
  let near = Time_series.map (fun x -> x +. 0.01) pattern in
  let far = Time_series.map (fun x -> x +. 100.0) pattern in
  let q = Ts_query.query ~pattern ~epsilon:5.0 in
  let instance = Ts_query.instance q in
  let item_near = Ts_query.make_item ~id:0 ~segments:8 near in
  let item_far = Ts_query.make_item ~id:1 ~segments:8 far in
  checkb "far is NO" true (Tvl.equal (instance.classify item_far) Tvl.No);
  checkb "near is YES or MAYBE" true
    (not (Tvl.equal (instance.classify item_near) Tvl.No));
  (* Probing resolves and zeroes laxity. *)
  let probed = Ts_query.probe item_near in
  checkb "probed definite" true (Tvl.is_definite (instance.classify probed));
  checkf 0.0 "probed laxity" 0.0 (instance.laxity probed);
  checkb "near truly matches" true (Ts_query.in_exact q item_near);
  Alcotest.check_raises "negative epsilon"
    (Invalid_argument "Ts_query.query: epsilon < 0") (fun () ->
      ignore (Ts_query.query ~pattern ~epsilon:(-1.0)));
  Alcotest.check_raises "NaN epsilon"
    (Invalid_argument "Ts_query.query: epsilon < 0") (fun () ->
      ignore (Ts_query.query ~pattern ~epsilon:Float.nan))

let test_ts_query_end_to_end () =
  (* Full QaQ over sketched series with perfect precision: every answer
     is verified against ground truth. *)
  let rng = Rng.create 10 in
  let pattern = random_series rng 128 in
  let items =
    Array.init 300 (fun id ->
        let series =
          if id mod 3 = 0 then
            Time_series.map (fun x -> x +. Rng.gaussian rng ~mean:0.0 ~stddev:0.4) pattern
          else random_series rng 128
        in
        Ts_query.make_item ~id ~segments:16 series)
  in
  let q = Ts_query.query ~pattern ~epsilon:8.0 in
  let requirements = Quality.requirements ~precision:1.0 ~recall:0.5 ~laxity:5.0 in
  let report =
    Operator.run ~rng ~instance:(Ts_query.instance q)
      ~cascade:(Cascade.of_driver (Probe_driver.scalar Ts_query.probe))
      ~policy:Policy.stingy ~requirements
      (Operator.source_of_array items)
  in
  checkb "meets requirements" true (Quality.meets report.guarantees requirements);
  List.iter
    (fun (e : Ts_query.item Operator.emitted) ->
      checkb "perfect precision verified" true (Ts_query.in_exact q e.obj))
    report.answer;
  checkb "found some" true (report.answer_size > 0)

let suite =
  [
    ("series basics", `Quick, test_series_basics);
    ("motif planting", `Quick, test_motif);
    ("paa segment stats", `Quick, test_paa_segments);
    ("paa uneven lengths", `Quick, test_paa_uneven_lengths);
    QCheck_alcotest.to_alcotest prop_paa_bounds_sound;
    QCheck_alcotest.to_alcotest prop_more_segments_tighter;
    ("ts query classification", `Quick, test_ts_query_classification);
    ("ts query end to end", `Quick, test_ts_query_end_to_end);
  ]
