(* Property tests for finite unions of closed intervals.

   The key invariant: set algebra on Real_set must agree pointwise with
   boolean algebra on membership, for points away from component
   boundaries (closed-endpoint approximation documented in the mli). *)

let checkf = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

(* The empty set and the whole line, built from the constructors. *)
let full = Real_set.segment neg_infinity infinity
let empty = Real_set.complement full

let test_basics () =
  checkb "mem segment" true (Real_set.mem (Real_set.segment 1.0 3.0) 2.0);
  checkb "mem outside" false (Real_set.mem (Real_set.segment 1.0 3.0) 4.0);
  checkb "empty has nothing" false (Real_set.mem empty 0.0);
  checkb "full has everything" true (Real_set.mem full 1e300);
  checkb "at_least" true (Real_set.mem (Real_set.at_least 5.0) 5.0);
  checkb "at_most" false (Real_set.mem (Real_set.at_most 5.0) 5.1)

let test_union_merges () =
  let s = Real_set.union (Real_set.segment 0.0 2.0) (Real_set.segment 1.0 3.0) in
  Alcotest.(check int) "merged to one component" 1
    (List.length (Real_set.components s));
  let s2 = Real_set.union (Real_set.segment 0.0 1.0) (Real_set.segment 2.0 3.0) in
  Alcotest.(check int) "disjoint stays two" 2
    (List.length (Real_set.components s2))

let test_complement () =
  let s = Real_set.complement (Real_set.segment 1.0 3.0) in
  checkb "left of hole" true (Real_set.mem s 0.0);
  checkb "inside hole" false (Real_set.mem s 2.0);
  checkb "right of hole" true (Real_set.mem s 4.0);
  checkb "complement of full is empty" true
    (Real_set.components (Real_set.complement full) = []);
  checkb "complement of empty is full" true
    (Real_set.components (Real_set.complement empty) = [ (neg_infinity, infinity) ])

let test_covers_disjoint () =
  let s = Real_set.union (Real_set.segment 0.0 2.0) (Real_set.segment 5.0 8.0) in
  checkb "covers inner" true (Real_set.covers s (Interval.make 5.5 7.0));
  checkb "does not cover straddling" false (Real_set.covers s (Interval.make 1.0 6.0));
  checkb "disjoint from gap" true (Real_set.disjoint s (Interval.make 3.0 4.0));
  checkb "not disjoint" false (Real_set.disjoint s (Interval.make 1.0 6.0))

let test_measure () =
  let s = Real_set.union (Real_set.segment 0.0 2.0) (Real_set.segment 5.0 8.0) in
  checkf "full window" 5.0 (Real_set.measure_within s (Interval.make (-10.0) 10.0));
  checkf "partial window" 2.0 (Real_set.measure_within s (Interval.make 1.0 6.0));
  checkf "gap window" 0.0 (Real_set.measure_within s (Interval.make 3.0 4.0))

(* Random set expressions, evaluated both as Real_set and as a boolean
   membership function. *)

type expr =
  | Seg of float * float
  | AtLeast of float
  | Union of expr * expr
  | Inter of expr * expr
  | Compl of expr

let rec to_set = function
  | Seg (a, b) -> Real_set.segment a b
  | AtLeast a -> Real_set.at_least a
  | Union (a, b) -> Real_set.union (to_set a) (to_set b)
  | Inter (a, b) -> Real_set.inter (to_set a) (to_set b)
  | Compl a -> Real_set.complement (to_set a)

let rec holds e x =
  match e with
  | Seg (a, b) -> a <= x && x <= b
  | AtLeast a -> x >= a
  | Union (a, b) -> holds a x || holds b x
  | Inter (a, b) -> holds a x && holds b x
  | Compl a -> not (holds a x)

let expr_gen =
  (* Integer-valued endpoints so that test points at k + 0.5 never hit a
     boundary, where open/closed distinctions would bite. *)
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              (let* a = int_range (-20) 20 in
               let* w = int_range 0 15 in
               return (Seg (float_of_int a, float_of_int (a + w))));
              map (fun a -> AtLeast (float_of_int a)) (int_range (-20) 20);
            ]
        in
        if n <= 1 then leaf
        else
          oneof
            [
              leaf;
              map2 (fun a b -> Union (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Inter (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Compl a) (self (n - 1));
            ]))

let prop_membership_agrees =
  QCheck2.Test.make ~name:"set algebra agrees with boolean membership"
    ~count:500
    QCheck2.Gen.(pair expr_gen (int_range (-30) 30))
    (fun (e, k) ->
      let x = float_of_int k +. 0.5 in
      Real_set.mem (to_set e) x = holds e x)

let prop_components_sorted_disjoint =
  QCheck2.Test.make ~name:"components are sorted with positive gaps"
    ~count:500 expr_gen (fun e ->
      let rec ok = function
        | [] | [ _ ] -> true
        | (_, h1) :: ((l2, _) as c2) :: rest -> h1 < l2 && ok (c2 :: rest)
      in
      let comps = Real_set.components (to_set e) in
      List.for_all (fun (l, h) -> l <= h) comps && ok comps)

(* Double complement preserves membership away from boundaries.  It is
   NOT the identity on representations: a degenerate point component
   [a, a] is swallowed when its closed complement halves merge — the
   documented measure-zero approximation. *)
let prop_double_complement =
  QCheck2.Test.make ~name:"double complement preserves interior membership"
    ~count:300
    QCheck2.Gen.(pair expr_gen (int_range (-30) 30))
    (fun (e, k) ->
      let x = float_of_int k +. 0.5 in
      let s = to_set e in
      Real_set.mem s x
      = Real_set.mem (Real_set.complement (Real_set.complement s)) x)

let suite =
  [
    ("membership basics", `Quick, test_basics);
    ("union merges overlaps", `Quick, test_union_merges);
    ("complement", `Quick, test_complement);
    ("covers / disjoint", `Quick, test_covers_disjoint);
    ("measure within window", `Quick, test_measure);
    QCheck_alcotest.to_alcotest prop_membership_agrees;
    QCheck_alcotest.to_alcotest prop_components_sorted_disjoint;
    QCheck_alcotest.to_alcotest prop_double_complement;
  ]
