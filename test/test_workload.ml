(* Tests for the synthetic (§5.2) and interval-data workload generators. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_config_validation () =
  (* NaN fails every comparison, so a check written as "reject if out of
     range" would let it through. *)
  List.iter
    (fun (f_y, f_m) ->
      Alcotest.check_raises
        (Printf.sprintf "fractions f_y=%g f_m=%g" f_y f_m)
        (Invalid_argument "Synthetic.config: invalid fractions") (fun () ->
          ignore (Synthetic.config ~f_y ~f_m ())))
    [ (0.6, 0.6); (nan, 0.2); (0.2, nan); (infinity, 0.0); (0.0, neg_infinity) ];
  Alcotest.check_raises "negative total"
    (Invalid_argument "Synthetic.config: total < 0") (fun () ->
      ignore (Synthetic.config ~total:(-1) ()))

let test_label_fractions () =
  let data =
    Synthetic.generate (Rng.create 3)
      (Synthetic.config ~total:50000 ~f_y:0.3 ~f_m:0.1 ())
  in
  let count label =
    Array.fold_left
      (fun acc (o : Synthetic.obj) -> if Tvl.equal o.label label then acc + 1 else acc)
      0 data
  in
  let frac label = float_of_int (count label) /. 50000.0 in
  checkb "f_y" true (Float.abs (frac Tvl.Yes -. 0.3) < 0.01);
  checkb "f_m" true (Float.abs (frac Tvl.Maybe -. 0.1) < 0.01);
  checkb "f_n" true (Float.abs (frac Tvl.No -. 0.6) < 0.01)

let test_ground_truth_consistency () =
  let data =
    Synthetic.generate (Rng.create 4) (Synthetic.config ~total:5000 ())
  in
  Array.iter
    (fun (o : Synthetic.obj) ->
      (match o.label with
      | Tvl.Yes -> checkb "yes in exact" true o.probe_yes
      | Tvl.No -> checkb "no not in exact" false o.probe_yes
      | Tvl.Maybe -> ());
      (* The instance view. *)
      checkb "classify matches label" true
        (Tvl.equal (Synthetic.instance.classify o) o.label);
      checkb "laxity in range" true (o.laxity >= 0.0 && o.laxity < 100.0);
      checkb "success in range" true (o.success >= 0.0 && o.success <= 1.0);
      (* Probing resolves definitively with zero laxity. *)
      let p = Synthetic.probe o in
      checkb "probe definite" true
        (Tvl.is_definite (Synthetic.instance.classify p));
      checkb "probe laxity" true (Synthetic.instance.laxity p = 0.0);
      checkb "probe preserves truth" true (Synthetic.in_exact p = Synthetic.in_exact o))
    data

let test_maybe_success_calibration () =
  (* Among MAYBE objects, P(probe_yes) should track s(o): bucket by s and
     compare frequencies. *)
  let data =
    Synthetic.generate (Rng.create 5)
      (Synthetic.config ~total:100000 ~f_y:0.0 ~f_m:1.0 ())
  in
  let buckets = Array.make 5 (0, 0) in
  Array.iter
    (fun (o : Synthetic.obj) ->
      let b = Stdlib.min 4 (int_of_float (o.success *. 5.0)) in
      let yes, total = buckets.(b) in
      buckets.(b) <- ((if o.probe_yes then yes + 1 else yes), total + 1))
    data;
  Array.iteri
    (fun b (yes, total) ->
      let expected = (float_of_int b +. 0.5) /. 5.0 in
      let rate = float_of_int yes /. float_of_int total in
      checkb
        (Printf.sprintf "bucket %d calibrated" b)
        true
        (Float.abs (rate -. expected) < 0.02))
    buckets

let test_skewed_generator () =
  let cfg = Synthetic.config ~total:30000 () in
  let uniform = Synthetic.generate (Rng.create 6) cfg in
  let skewed =
    Synthetic.generate_skewed (Rng.create 6) cfg ~laxity_exponent:3.0
      ~success_exponent:1.0
  in
  let mean_laxity data =
    Stats.mean (Array.map (fun (o : Synthetic.obj) -> o.laxity) data)
  in
  checkb "uniform laxity mean near 50" true
    (Float.abs (mean_laxity uniform -. 50.0) < 1.5);
  (* E[L u^3] = L/4. *)
  checkb "skewed laxity mean near 25" true
    (Float.abs (mean_laxity skewed -. 25.0) < 1.5);
  Alcotest.check_raises "bad exponent"
    (Invalid_argument "Synthetic.generate_skewed: non-positive exponent")
    (fun () ->
      ignore
        (Synthetic.generate_skewed (Rng.create 1) cfg ~laxity_exponent:0.0
           ~success_exponent:1.0))

let test_exact_size () =
  let data =
    Synthetic.generate (Rng.create 7)
      (Synthetic.config ~total:20000 ~f_y:0.2 ~f_m:0.2 ())
  in
  (* E[|E|] = f_y + f_m * E[s] = 0.2 + 0.1 of the input. *)
  let e = float_of_int (Synthetic.exact_size data) /. 20000.0 in
  checkb "exact set near 30%" true (Float.abs (e -. 0.3) < 0.02)

(* Interval-data generator: belief always contains the truth, and the
   operator instance is sound. *)
let prop_interval_data_sound =
  QCheck2.Test.make ~name:"interval records: truth inside belief; classification sound"
    ~count:50
    QCheck2.Gen.(pair (int_range 0 1000) (float_range 1.0 100.0))
    (fun (seed, max_width) ->
      let rng = Rng.create seed in
      let records =
        Interval_data.uniform_intervals rng ~n:200
          ~value_range:(Interval.make 0.0 1000.0) ~max_width
      in
      let pred = Predicate.ge 500.0 in
      let instance = Interval_data.instance pred in
      Array.for_all
        (fun (r : Interval_data.record) ->
          Interval.contains (Uncertain.support r.belief) r.truth
          &&
          match instance.classify r with
          | Tvl.Yes -> Predicate.eval pred r.truth
          | Tvl.No -> not (Predicate.eval pred r.truth)
          | Tvl.Maybe -> true)
        records)

let test_gaussian_beliefs () =
  let records =
    Interval_data.gaussian_beliefs (Rng.create 8) ~n:500 ~mean:50.0 ~stddev:10.0
      ~noise:2.0
  in
  checki "count" 500 (Array.length records);
  Array.iter
    (fun (r : Interval_data.record) ->
      checkb "truth in 4-sigma support" true
        (Interval.contains (Uncertain.support r.belief) r.truth);
      checkb "laxity is the noise scale" true
        (Uncertain.laxity r.belief = 2.0))
    records;
  (* Probing collapses the belief. *)
  let probed = Interval_data.probe records.(0) in
  checkb "probe collapses" true (Uncertain.laxity probed.belief = 0.0)

(* [Interval_data.instance] compiles its predicate once and classifies
   exact and interval beliefs through the compiled entry points; every
   answer must still be [Predicate.classify]/[success] bit for bit —
   Gaussian beliefs included, which keep the general functions. *)
let prop_instance_is_predicate =
  let belief_gen =
    QCheck2.Gen.(
      let value =
        oneof
          [
            map float_of_int (int_range (-25) 25);
            float_range (-25.0) 25.0;
            oneofl [ 0.0; -0.0 ];
          ]
      in
      oneof
        [
          map Uncertain.exact value;
          map (fun x -> Uncertain.interval x x) value;
          map2
            (fun lo w -> Uncertain.interval lo (lo +. w))
            value
            (oneof [ map float_of_int (int_range 1 10); float_range 0.0 10.0 ]);
          map2
            (fun mean stddev -> Uncertain.gaussian ~mean ~stddev ())
            value (float_range 0.1 5.0);
        ])
  in
  QCheck2.Test.make ~name:"interval_data instance is Predicate bit for bit"
    ~count:500
    QCheck2.Gen.(pair Test_predicate.pred_gen (list_size (int_range 1 20) belief_gen))
    (fun (pred, beliefs) ->
      let instance = Interval_data.instance pred in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun belief ->
          let r = { Interval_data.id = 0; belief; truth = 0.0 } in
          Tvl.equal (instance.classify r) (Predicate.classify pred belief)
          && bits (instance.success r) = bits (Predicate.success pred belief)
          && bits (instance.laxity r) = bits (Uncertain.laxity belief))
        beliefs)

let suite =
  [
    ("config validation", `Quick, test_config_validation);
    ("label fractions", `Quick, test_label_fractions);
    ("ground truth consistency", `Quick, test_ground_truth_consistency);
    ("maybe success calibration", `Slow, test_maybe_success_calibration);
    ("skewed generator", `Quick, test_skewed_generator);
    ("exact set size", `Quick, test_exact_size);
    QCheck_alcotest.to_alcotest prop_interval_data_sound;
    QCheck_alcotest.to_alcotest prop_instance_is_predicate;
    ("gaussian beliefs", `Quick, test_gaussian_beliefs);
  ]
