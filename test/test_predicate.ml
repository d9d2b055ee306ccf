(* Tests for selection predicates and their three-way evaluation. *)

let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal
let checkf tol = Alcotest.(check (float tol))

let test_eval_strictness () =
  Alcotest.(check bool) "ge includes bound" true (Predicate.eval (Predicate.ge 5.0) 5.0);
  Alcotest.(check bool) "gt excludes bound" false (Predicate.eval (Predicate.Gt 5.0) 5.0);
  Alcotest.(check bool) "le includes bound" true (Predicate.eval (Predicate.le 5.0) 5.0);
  Alcotest.(check bool) "lt excludes bound" false (Predicate.eval (Predicate.Lt 5.0) 5.0)

let test_compound_eval () =
  let p = Predicate.(ge 0.0 &&& le 10.0) in
  Alcotest.(check bool) "in range" true (Predicate.eval p 5.0);
  Alcotest.(check bool) "out of range" false (Predicate.eval p 11.0);
  let q = Predicate.(Lt 0.0 ||| Gt 10.0) in
  Alcotest.(check bool) "disjunction left" true (Predicate.eval q (-1.0));
  Alcotest.(check bool) "negation" true (Predicate.eval (Predicate.not_ q) 5.0)

let test_constructor_errors () =
  Alcotest.check_raises "reversed between"
    (Invalid_argument "Predicate.between: reversed bounds") (fun () ->
      ignore (Predicate.between 5.0 1.0));
  Alcotest.check_raises "non-finite"
    (Invalid_argument "Predicate.ge: bound must be finite") (fun () ->
      ignore (Predicate.ge Float.nan))

let test_classify_compound () =
  let p = Predicate.(ge 0.0 &&& le 10.0) in
  Alcotest.check tvl "inside" Tvl.Yes
    (Predicate.classify p (Uncertain.interval 2.0 8.0));
  Alcotest.check tvl "straddles upper" Tvl.Maybe
    (Predicate.classify p (Uncertain.interval 8.0 12.0));
  Alcotest.check tvl "outside" Tvl.No
    (Predicate.classify p (Uncertain.interval 11.0 12.0));
  (* A hole: NOT(2 <= v <= 4) over support [1,5] is MAYBE even though the
     support's endpoints both satisfy the predicate — interval endpoints
     alone would get this wrong; the satisfying-set semantics gets it
     right. *)
  let hole = Predicate.not_ (Predicate.between 2.0 4.0) in
  Alcotest.check tvl "hole detected" Tvl.Maybe
    (Predicate.classify hole (Uncertain.interval 1.0 5.0))

let test_success_with_hole () =
  (* Uniform on [0, 10]; satisfying set = [0,2] u [8,10] has mass 0.4. *)
  let p = Predicate.(le 2.0 ||| ge 8.0) in
  checkf 1e-9 "union mass" 0.4 (Predicate.success p (Uncertain.interval 0.0 10.0));
  (* Complement has mass 0.6. *)
  checkf 1e-9 "complement mass" 0.6
    (Predicate.success (Predicate.not_ p) (Uncertain.interval 0.0 10.0))

let test_success_gaussian_compound () =
  let g = Uncertain.gaussian ~mean:0.0 ~stddev:1.0 () in
  let p = Predicate.(le (-1.0) ||| ge 1.0) in
  (* 2 * (1 - Phi(1)) = 0.3173105. *)
  checkf 1e-5 "two-tail mass" 0.3173105 (Predicate.success p g)

(* Random predicate trees with integer bounds, checked against direct
   evaluation on off-boundary points. *)

let pred_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun a -> Predicate.ge (float_of_int a)) (int_range (-20) 20);
              map (fun a -> Predicate.le (float_of_int a)) (int_range (-20) 20);
              (let* a = int_range (-20) 20 in
               let* w = int_range 0 15 in
               return (Predicate.between (float_of_int a) (float_of_int (a + w))));
            ]
        in
        if n <= 1 then leaf
        else
          oneof
            [
              leaf;
              map2 (fun a b -> Predicate.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Predicate.Or (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Predicate.Not a) (self (n - 1));
            ]))

let prop_satisfying_set_agrees_with_eval =
  QCheck2.Test.make ~name:"satisfying set agrees with eval off boundaries"
    ~count:500
    QCheck2.Gen.(pair pred_gen (int_range (-30) 30))
    (fun (p, k) ->
      let x = float_of_int k +. 0.5 in
      Real_set.mem (Predicate.satisfying_set p) x = Predicate.eval p x)

let prop_classify_sound =
  QCheck2.Test.make
    ~name:"YES/NO classification is sound for sampled values" ~count:300
    QCheck2.Gen.(pair pred_gen (pair (int_range (-25) 25) (int_range 1 10)))
    (fun (p, (lo, w)) ->
      (* Support with half-integer endpoints avoids boundary ties. *)
      let support =
        Interval.make (float_of_int lo +. 0.5) (float_of_int (lo + w) +. 0.5)
      in
      let u = Uncertain.Interval support in
      let rng = Rng.create 3 in
      let verdict = Predicate.classify p u in
      let ok = ref true in
      for _ = 1 to 30 do
        let x = Interval.sample rng support in
        match verdict with
        | Tvl.Yes -> if not (Predicate.eval p x) then ok := false
        | Tvl.No -> if Predicate.eval p x then ok := false
        | Tvl.Maybe -> ()
      done;
      !ok)

let prop_success_in_bounds_and_consistent =
  QCheck2.Test.make ~name:"success in [0,1], 1 on YES, 0 on NO" ~count:300
    QCheck2.Gen.(pair pred_gen (pair (int_range (-25) 25) (int_range 1 10)))
    (fun (p, (lo, w)) ->
      let u =
        Uncertain.interval (float_of_int lo +. 0.5) (float_of_int (lo + w) +. 0.5)
      in
      let s = Predicate.success p u in
      (s >= 0.0 && s <= 1.0)
      &&
      match Predicate.classify p u with
      | Tvl.Yes -> s = 1.0
      | Tvl.No -> s = 0.0
      | Tvl.Maybe -> true)

let prop_success_complement =
  QCheck2.Test.make ~name:"success p + success (not p) = 1 on intervals"
    ~count:300
    QCheck2.Gen.(pair pred_gen (pair (int_range (-25) 25) (int_range 1 10)))
    (fun (p, (lo, w)) ->
      let u =
        Uncertain.interval (float_of_int lo +. 0.5) (float_of_int (lo + w) +. 0.5)
      in
      let s = Predicate.success p u +. Predicate.success (Predicate.not_ p) u in
      Float.abs (s -. 1.0) < 1e-9)

let suite =
  [
    ("eval strictness", `Quick, test_eval_strictness);
    ("compound eval", `Quick, test_compound_eval);
    ("constructor errors", `Quick, test_constructor_errors);
    ("compound classification", `Quick, test_classify_compound);
    ("success with holes", `Quick, test_success_with_hole);
    ("gaussian compound success", `Quick, test_success_gaussian_compound);
    QCheck_alcotest.to_alcotest prop_satisfying_set_agrees_with_eval;
    QCheck_alcotest.to_alcotest prop_classify_sound;
    QCheck_alcotest.to_alcotest prop_success_in_bounds_and_consistent;
    QCheck_alcotest.to_alcotest prop_success_complement;
  ]
