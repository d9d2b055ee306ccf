(* Tests for Bernoulli sampling, histograms and selectivity estimation. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let test_hist1d () =
  let h = Histogram.Hist1d.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Histogram.Hist1d.add h) [ 0.5; 1.5; 2.5; 3.5; 4.5; 5.5; 6.5; 7.5; 8.5; 9.5 ];
  checkf 1e-9 "mass above 5" 0.5 (Histogram.Hist1d.mass_above h 5.0);
  checkf 1e-9 "mass between" 0.3 (Histogram.Hist1d.mass_between h 2.0 5.0);
  (* Fractional bin: above 4.5 takes half of bin [4,5]. *)
  checkf 1e-9 "fractional bin" 0.55 (Histogram.Hist1d.mass_above h 4.5);
  (* Out-of-range values clamp to boundary bins. *)
  Histogram.Hist1d.add h 99.0;
  checkf 1e-9 "clamped into top bin" (6.0 /. 11.0)
    (Histogram.Hist1d.mass_above h 5.0)

let test_hist2d_region () =
  let h =
    Histogram.Hist2d.create ~x_lo:0.0 ~x_hi:1.0 ~x_bins:10 ~y_lo:0.0 ~y_hi:100.0
      ~y_bins:10
  in
  (* Four points at known spots. *)
  Histogram.Hist2d.add h ~x:0.15 ~y:10.0;
  Histogram.Hist2d.add h ~x:0.85 ~y:10.0;
  Histogram.Hist2d.add h ~x:0.15 ~y:90.0;
  Histogram.Hist2d.add h ~x:0.85 ~y:90.0;
  let r = Histogram.Hist2d.region h ~x_min:0.5 ~y_min:50.0 ~y_max:100.0 in
  checkf 1e-9 "one of four in the quadrant" 0.25 r.mass;
  checkf 1e-9 "its mean x" 0.85 r.mean_x;
  let all = Histogram.Hist2d.region h ~x_min:0.0 ~y_min:0.0 ~y_max:100.0 in
  checkf 1e-9 "full mass" 1.0 all.mass;
  checkf 1e-9 "overall mean x" 0.5 all.mean_x

let synthetic_sample seed n f_y f_m =
  Synthetic.generate (Rng.create seed)
    (Synthetic.config ~total:n ~f_y ~f_m ~max_laxity:100.0 ())

(* Regression: non-finite values used to clamp silently into a boundary
   bin, corrupting the estimate; they must be rejected loudly and leave
   the histogram untouched. *)
let test_hist_non_finite () =
  let h = Histogram.Hist1d.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  Alcotest.check_raises "1d nan"
    (Invalid_argument "Hist1d.bin_of: non-finite value") (fun () ->
      Histogram.Hist1d.add h Float.nan);
  Alcotest.check_raises "1d infinity"
    (Invalid_argument "Hist1d.bin_of: non-finite value") (fun () ->
      Histogram.Hist1d.add h Float.infinity);
  checkf 0.0 "1d untouched" 0.0 (Histogram.Hist1d.mass_above h (-1.0));
  let h2 =
    Histogram.Hist2d.create ~x_lo:0.0 ~x_hi:1.0 ~x_bins:4 ~y_lo:0.0 ~y_hi:1.0
      ~y_bins:4
  in
  Alcotest.check_raises "2d nan x"
    (Invalid_argument "Hist2d.index: non-finite value") (fun () ->
      Histogram.Hist2d.add h2 ~x:Float.nan ~y:0.5);
  Alcotest.check_raises "2d infinite y"
    (Invalid_argument "Hist2d.index: non-finite value") (fun () ->
      Histogram.Hist2d.add h2 ~x:0.5 ~y:Float.neg_infinity);
  checkf 0.0 "2d untouched" 0.0
    (Histogram.Hist2d.region h2 ~x_min:(-1.0) ~y_min:(-1.0) ~y_max:2.0).mass

let test_selectivity_estimate () =
  let sample = synthetic_sample 5 20000 0.25 0.35 in
  let e =
    Selectivity.estimate ~instance:Synthetic.instance ~laxity_cap:100.0 sample
  in
  checkb "f_y near truth" true (Float.abs (e.f_y -. 0.25) < 0.02);
  checkb "f_m near truth" true (Float.abs (e.f_m -. 0.35) < 0.02);
  checkf 0.0 "laxity cap respected" 100.0 e.max_laxity;
  (* The maybe-plane histogram should see roughly uniform success: the
     mass above s = 0.5 is about half. *)
  let r =
    Histogram.Hist2d.region e.maybe_plane ~x_min:0.5 ~y_min:0.0 ~y_max:100.0
  in
  checkb "uniform success mass" true (Float.abs (r.mass -. 0.5) < 0.05)

let test_selectivity_validation () =
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Selectivity.estimate: empty sample") (fun () ->
      ignore (Selectivity.estimate ~instance:Synthetic.instance [||]))

let test_bernoulli_sample () =
  let rng = Rng.create 9 in
  let data = Array.init 50000 (fun i -> i) in
  let s = Selectivity.bernoulli_sample rng ~fraction:0.01 data in
  let n = Array.length s in
  checkb "about 1%" true (n > 350 && n < 650);
  (* Order-preserving subsequence. *)
  let ok = ref true in
  Array.iteri (fun i x -> if i > 0 && x <= s.(i - 1) then ok := false) s;
  checkb "order preserved" true !ok;
  checki "fraction 0 empty" 0
    (Array.length (Selectivity.bernoulli_sample rng ~fraction:0.0 data))

let suite =
  [
    ("hist1d masses", `Quick, test_hist1d);
    ("hist2d regions", `Quick, test_hist2d_region);
    ("histograms reject non-finite", `Quick, test_hist_non_finite);
    ("selectivity estimation", `Quick, test_selectivity_estimate);
    ("selectivity validation", `Quick, test_selectivity_validation);
    ("bernoulli sampling", `Quick, test_bernoulli_sample);
  ]
