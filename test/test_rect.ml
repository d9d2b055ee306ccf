(* Tests for the 2-D rectangle imprecision model. *)

let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal
let checkf tol = Alcotest.(check (float tol))

let rect x0 x1 y0 y1 = Rect.make (Interval.make x0 x1) (Interval.make y0 y1)

let test_geometry () =
  let r = rect 0.0 3.0 0.0 4.0 in
  checkf 1e-12 "area" 12.0 (Interval.width r.xr *. Interval.width r.yr);
  checkf 1e-12 "laxity is the diagonal" 5.0 (Rect.laxity r);
  Alcotest.(check bool) "contains corner" true
    (Rect.contains r { Rect.x = 0.0; y = 0.0 });
  Alcotest.(check bool) "outside" false
    (Rect.contains r { Rect.x = 5.0; y = 1.0 });
  let p = Rect.of_point { Rect.x = 1.0; y = 1.0 } in
  checkf 1e-12 "point laxity" 0.0 (Rect.laxity p)

let test_of_center () =
  let r = Rect.of_center { Rect.x = 5.0; y = 5.0 } ~radius:2.0 in
  checkf 1e-12 "x lo" 3.0 (Interval.lo r.xr);
  checkf 1e-12 "y hi" 7.0 (Interval.hi r.yr);
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Rect.of_center: negative radius") (fun () ->
      ignore (Rect.of_center { Rect.x = 0.0; y = 0.0 } ~radius:(-1.0)))

let test_classification () =
  let window = rect 0.0 10.0 0.0 10.0 in
  Alcotest.check tvl "inside" Tvl.Yes
    (Rect.classify_in (rect 2.0 4.0 2.0 4.0) window);
  Alcotest.check tvl "straddling" Tvl.Maybe
    (Rect.classify_in (rect 8.0 12.0 2.0 4.0) window);
  Alcotest.check tvl "outside" Tvl.No
    (Rect.classify_in (rect 20.0 22.0 2.0 4.0) window)

let test_success_area_fraction () =
  let window = rect 0.0 10.0 0.0 10.0 in
  (* Half the object's area overlaps the window. *)
  checkf 1e-12 "half overlap" 0.5
    (Rect.success_in (rect 8.0 12.0 2.0 4.0) window);
  checkf 1e-12 "full overlap" 1.0 (Rect.success_in (rect 1.0 2.0 1.0 2.0) window);
  checkf 1e-12 "no overlap" 0.0 (Rect.success_in (rect 20.0 21.0 1.0 2.0) window);
  (* Degenerate point object. *)
  checkf 1e-12 "point inside" 1.0
    (Rect.success_in (Rect.of_point { Rect.x = 5.0; y = 5.0 }) window);
  (* Degenerate segment object: length fraction. *)
  let segment = Rect.make (Interval.make 8.0 12.0) (Interval.point 5.0) in
  checkf 1e-12 "segment half covered" 0.5 (Rect.success_in segment window)

let rect_gen =
  QCheck2.Gen.(
    let* x0 = float_range (-50.0) 50.0 in
    let* y0 = float_range (-50.0) 50.0 in
    let* w = float_range 0.0 20.0 in
    let* h = float_range 0.0 20.0 in
    return (rect x0 (x0 +. w) y0 (y0 +. h)))

let prop_sample_inside =
  QCheck2.Test.make ~name:"samples stay inside" ~count:300 rect_gen (fun r ->
      let rng = Rng.create 8 in
      let p = Rect.sample rng r in
      Rect.contains r p)

let prop_success_consistent =
  QCheck2.Test.make ~name:"classification extremes match success" ~count:300
    QCheck2.Gen.(pair rect_gen rect_gen)
    (fun (o, window) ->
      let s = Rect.success_in o window in
      (s >= 0.0 && s <= 1.0)
      &&
      match Rect.classify_in o window with
      | Tvl.Yes -> s = 1.0
      | Tvl.No -> s = 0.0
      | Tvl.Maybe -> true)

let prop_subset_implies_yes =
  QCheck2.Test.make ~name:"subset classifies YES" ~count:300
    QCheck2.Gen.(pair rect_gen (pair (float_range 1.0 10.0) (float_range 1.0 10.0)))
    (fun (o, (mx, my)) ->
      (* Grow the object into a window that surely contains it. *)
      let window =
        Rect.make
          (Interval.make (Interval.lo o.xr -. mx)
             (Interval.hi o.xr +. mx))
          (Interval.make (Interval.lo o.yr -. my)
             (Interval.hi o.yr +. my))
      in
      Tvl.equal (Rect.classify_in o window) Tvl.Yes)

let suite =
  [
    ("geometry", `Quick, test_geometry);
    ("of_center", `Quick, test_of_center);
    ("classification", `Quick, test_classification);
    ("success as area fraction", `Quick, test_success_area_fraction);
    QCheck_alcotest.to_alcotest prop_sample_inside;
    QCheck_alcotest.to_alcotest prop_success_consistent;
    QCheck_alcotest.to_alcotest prop_subset_implies_yes;
  ]
