(* Tests for the normal CDF, the erf approximation under it, and the
   normal quantile that cross-checks it. *)

let checkf tol = Alcotest.(check (float tol))

(* [erf] is reached through the standard normal CDF:
   erf x = 2 cdf (x sqrt 2) - 1. *)
let erf x = (2.0 *. Math_special.normal_cdf ~mean:0.0 ~stddev:1.0 (x *. sqrt 2.0)) -. 1.0

let test_erf_known_values () =
  (* Reference values to 7 decimals. *)
  checkf 2e-7 "erf 0" 0.0 (erf 0.0);
  checkf 2e-7 "erf 0.5" 0.5204999 (erf 0.5);
  checkf 2e-7 "erf 1" 0.8427008 (erf 1.0);
  checkf 2e-7 "erf 2" 0.9953223 (erf 2.0);
  checkf 2e-7 "erf 3" 0.9999779 (erf 3.0)

let test_erf_symmetry () =
  List.iter (fun x -> checkf 1e-12 "odd symmetry" (-.erf x) (erf (-.x))) [ 0.1; 0.7; 1.3; 2.5 ]

(* The CDF is built on erfc = 1 - erf, so off the mean its two tails sum
   to one (at the mean the approximation's erf 0 is 1e-9, not 0). *)
let test_erfc () =
  List.iter
    (fun x ->
      let cdf = Math_special.normal_cdf ~mean:1.5 ~stddev:0.5 in
      checkf 1e-12 "tails sum to one" 1.0 (cdf (1.5 +. x) +. cdf (1.5 -. x)))
    [ -1.0; 0.5; 2.0 ]

let test_normal_cdf () =
  let cdf = Math_special.normal_cdf ~mean:0.0 ~stddev:1.0 in
  checkf 1e-7 "at mean" 0.5 (cdf 0.0);
  checkf 2e-7 "one sigma" 0.8413447 (cdf 1.0);
  checkf 2e-7 "two sigma" 0.9772499 (cdf 2.0);
  checkf 2e-7 "minus one sigma" 0.1586553 (cdf (-1.0));
  (* Location-scale. *)
  checkf 1e-7 "shifted" 0.5 (Math_special.normal_cdf ~mean:10.0 ~stddev:3.0 10.0);
  Alcotest.check_raises "bad stddev"
    (Invalid_argument "Math_special.normal_cdf: stddev <= 0") (fun () ->
      ignore (Math_special.normal_cdf ~mean:0.0 ~stddev:0.0 1.0))

let test_quantile_roundtrip () =
  List.iter
    (fun p ->
      let x = Math_special.normal_quantile p in
      let back = Math_special.normal_cdf ~mean:0.0 ~stddev:1.0 x in
      checkf 1e-4 (Printf.sprintf "roundtrip p=%g" p) p back)
    [ 0.001; 0.025; 0.2; 0.5; 0.8; 0.975; 0.999 ]

let test_quantile_known () =
  checkf 1e-6 "median" 0.0 (Math_special.normal_quantile 0.5);
  checkf 1e-4 "97.5%" 1.959964 (Math_special.normal_quantile 0.975);
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Math_special.normal_quantile: p outside (0, 1)")
    (fun () -> ignore (Math_special.normal_quantile 0.0))

let suite =
  [
    ("erf known values", `Quick, test_erf_known_values);
    ("erf symmetry", `Quick, test_erf_symmetry);
    ("erfc identity", `Quick, test_erfc);
    ("normal cdf", `Quick, test_normal_cdf);
    ("quantile roundtrip", `Quick, test_quantile_roundtrip);
    ("quantile known values", `Quick, test_quantile_known);
  ]
