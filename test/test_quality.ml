(* Tests for quality requirements, guarantees and diagnostics (§2). *)

let checkf = Alcotest.(check (float 1e-12))
let checkb = Alcotest.(check bool)

let test_requirements_validation () =
  let r = Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:50.0 in
  checkf "precision" 0.9 r.precision;
  Alcotest.check_raises "precision above 1"
    (Invalid_argument "Quality.requirements: precision outside [0, 1]")
    (fun () ->
      ignore (Quality.requirements ~precision:1.1 ~recall:0.5 ~laxity:1.0));
  Alcotest.check_raises "negative recall"
    (Invalid_argument "Quality.requirements: recall outside [0, 1]") (fun () ->
      ignore (Quality.requirements ~precision:0.5 ~recall:(-0.1) ~laxity:1.0));
  Alcotest.check_raises "negative laxity"
    (Invalid_argument "Quality.requirements: laxity must be finite and >= 0")
    (fun () ->
      ignore (Quality.requirements ~precision:0.5 ~recall:0.5 ~laxity:(-1.0)))

let test_meets () =
  let r = Quality.requirements ~precision:0.8 ~recall:0.5 ~laxity:10.0 in
  let g p rc l : Quality.guarantees =
    { precision = p; recall = rc; max_laxity = l }
  in
  checkb "all met" true (Quality.meets (g 0.9 0.6 5.0) r);
  checkb "boundary met" true (Quality.meets (g 0.8 0.5 10.0) r);
  checkb "precision short" false (Quality.meets (g 0.79 0.6 5.0) r);
  checkb "recall short" false (Quality.meets (g 0.9 0.4 5.0) r);
  checkb "laxity over" false (Quality.meets (g 0.9 0.6 10.5) r)

let test_diagnostics_formulas () =
  (* Eq. 3/4 on plain counts. *)
  checkf "precision" 0.75
    (Quality.Diagnostics.precision ~answer_size:4 ~answer_in_exact:3);
  checkf "recall" 0.6
    (Quality.Diagnostics.recall ~exact_size:5 ~answer_in_exact:3);
  (* Empty-set conventions. *)
  checkf "empty answer precision" 1.0
    (Quality.Diagnostics.precision ~answer_size:0 ~answer_in_exact:0);
  checkf "empty exact recall" 1.0
    (Quality.Diagnostics.recall ~exact_size:0 ~answer_in_exact:0)

let test_diagnostics_validation () =
  Alcotest.check_raises "inconsistent precision counts"
    (Invalid_argument "Quality.Diagnostics.precision") (fun () ->
      ignore (Quality.Diagnostics.precision ~answer_size:2 ~answer_in_exact:3));
  Alcotest.check_raises "negative"
    (Invalid_argument "Quality.Diagnostics.recall") (fun () ->
      ignore (Quality.Diagnostics.recall ~exact_size:(-1) ~answer_in_exact:0))

(* The exhaustive corner (the answer is the exact set) is expressible:
   perfect precision and recall at the largest finite laxity. *)
let test_exhaustive () =
  let r = Quality.requirements ~precision:1.0 ~recall:1.0 ~laxity:max_float in
  checkf "perfect precision" 1.0 r.precision;
  checkf "perfect recall" 1.0 r.recall

let suite =
  [
    ("requirements validation", `Quick, test_requirements_validation);
    ("meets", `Quick, test_meets);
    ("diagnostics formulas", `Quick, test_diagnostics_formulas);
    ("diagnostics validation", `Quick, test_diagnostics_validation);
    ("exhaustive requirements", `Quick, test_exhaustive);
  ]
