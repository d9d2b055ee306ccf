(* Tests for the descriptive statistics the experiment harness reports. *)

let checkf = Alcotest.(check (float 1e-9))

let test_mean () =
  checkf "simple" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "empty" 0.0 (Stats.mean [||]);
  checkf "single" 7.0 (Stats.mean [| 7.0 |])

(* The confidence half-width is 1.96 s / sqrt n, so it exposes the unbiased
   sample variance s^2 it is built on. *)
let test_variance () =
  (* Sample variance of 2,4,4,4,5,5,7,9 is 32/7. *)
  checkf "known value"
    (1.96 *. sqrt (32.0 /. 7.0) /. sqrt 8.0)
    (Stats.confidence95 [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]);
  checkf "constant data" 0.0 (Stats.confidence95 [| 5.0; 5.0; 5.0 |])

let test_confidence () =
  checkf "fewer than two" 0.0 (Stats.confidence95 [| 1.0 |]);
  (* Sample variance of 1..5 is 2.5. *)
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "formula" (1.96 *. sqrt 2.5 /. sqrt 5.0) (Stats.confidence95 xs)

let suite =
  [
    ("mean", `Quick, test_mean);
    ("variance", `Quick, test_variance);
    ("confidence interval", `Quick, test_confidence);
  ]
