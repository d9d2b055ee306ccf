(* Exhaustive tests of the three-valued Kleene logic. *)

open Tvl

let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal
let all_values = [ Yes; No; Maybe ]

let test_and_table () =
  let expect = function
    | No, _ | _, No -> No
    | Maybe, _ | _, Maybe -> Maybe
    | Yes, Yes -> Yes
  in
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.check tvl "and" (expect (a, b)) (and_ a b))
        all_values)
    all_values

let test_or_table () =
  let expect = function
    | Yes, _ | _, Yes -> Yes
    | Maybe, _ | _, Maybe -> Maybe
    | No, No -> No
  in
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.check tvl "or" (expect (a, b)) (or_ a b))
        all_values)
    all_values

let test_not () =
  Alcotest.check tvl "not yes" No (not_ Yes);
  Alcotest.check tvl "not no" Yes (not_ No);
  Alcotest.check tvl "not maybe" Maybe (not_ Maybe)

let test_de_morgan () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.check tvl "de morgan and"
            (not_ (and_ a b))
            (or_ (not_ a) (not_ b));
          Alcotest.check tvl "de morgan or"
            (not_ (or_ a b))
            (and_ (not_ a) (not_ b)))
        all_values)
    all_values

let test_lattice_laws () =
  List.iter
    (fun a ->
      Alcotest.check tvl "and idempotent" a (and_ a a);
      Alcotest.check tvl "or idempotent" a (or_ a a);
      List.iter
        (fun b ->
          Alcotest.check tvl "and commutes" (and_ a b) (and_ b a);
          Alcotest.check tvl "or commutes" (or_ a b) (or_ b a);
          Alcotest.check tvl "absorption" a (and_ a (or_ a b)))
        all_values)
    all_values

let test_all_any () =
  (* A list's conjunction and disjunction are folds from the units of
     [and_] ([Yes]) and [or_] ([No]). *)
  let all ts = List.fold_left and_ Yes ts and any ts = List.fold_left or_ No ts in
  Alcotest.check tvl "all empty" Yes (all []);
  Alcotest.check tvl "any empty" No (any []);
  Alcotest.check tvl "all with maybe" Maybe (all [ Yes; Maybe; Yes ]);
  Alcotest.check tvl "all with no" No (all [ Yes; Maybe; No ]);
  Alcotest.check tvl "any with yes" Yes (any [ No; Maybe; Yes ]);
  Alcotest.check tvl "any maybes" Maybe (any [ No; Maybe ])

let test_bool_conversions () =
  Alcotest.check tvl "of_bool true" Yes (of_bool true);
  Alcotest.check tvl "of_bool false" No (of_bool false);
  Alcotest.(check bool) "of_bool is definite" true (is_definite (of_bool true));
  Alcotest.(check bool) "maybe is not definite" false (is_definite Maybe)

let test_ordering_and_strings () =
  Alcotest.(check bool) "No < Maybe" true (to_char No < to_char Maybe);
  Alcotest.(check bool) "Maybe < Yes" true (to_char Maybe < to_char Yes);
  List.iter
    (fun v -> Alcotest.check tvl "of_char inverts to_char" v (of_char (to_char v)))
    all_values;
  Alcotest.(check string) "YES" "YES" (to_string Yes);
  Alcotest.(check string) "MAYBE" "MAYBE" (to_string Maybe);
  Alcotest.(check bool) "is_definite" true (is_definite Yes);
  Alcotest.(check bool) "maybe not definite" false (is_definite Maybe)

let suite =
  [
    ("conjunction truth table", `Quick, test_and_table);
    ("disjunction truth table", `Quick, test_or_table);
    ("negation", `Quick, test_not);
    ("de morgan", `Quick, test_de_morgan);
    ("lattice laws", `Quick, test_lattice_laws);
    ("all/any", `Quick, test_all_any);
    ("bool conversions", `Quick, test_bool_conversions);
    ("ordering and strings", `Quick, test_ordering_and_strings);
  ]
