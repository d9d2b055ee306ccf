(* Tests for the QaQ band join: pair distance analysis, the probe cache,
   and guarantee soundness over the pair space. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))
let tvl = Alcotest.testable (Fmt.of_to_string Tvl.to_string) Tvl.equal

let iv = Interval.make

let test_distance_interval () =
  (* Disjoint intervals. *)
  let d = Pair_distance.distance_interval (iv 0.0 2.0) (iv 5.0 7.0) in
  checkf 1e-12 "lo" 3.0 (Interval.lo d);
  checkf 1e-12 "hi" 7.0 (Interval.hi d);
  (* Overlapping intervals: distance can be 0. *)
  let d = Pair_distance.distance_interval (iv 0.0 4.0) (iv 3.0 6.0) in
  checkf 1e-12 "overlap lo" 0.0 (Interval.lo d);
  checkf 1e-12 "overlap hi" 6.0 (Interval.hi d);
  (* Points. *)
  let d = Pair_distance.distance_interval (Interval.point 1.0) (Interval.point 4.0) in
  checkb "point distance" true (Interval.is_point d);
  checkf 1e-12 "point value" 3.0 (Interval.lo d)

let test_classify () =
  Alcotest.check tvl "certain join" Tvl.Yes
    (Pair_distance.classify ~epsilon:10.0 (iv 0.0 2.0) (iv 3.0 5.0));
  Alcotest.check tvl "certain non-join" Tvl.No
    (Pair_distance.classify ~epsilon:1.0 (iv 0.0 2.0) (iv 5.0 7.0));
  Alcotest.check tvl "uncertain" Tvl.Maybe
    (Pair_distance.classify ~epsilon:4.0 (iv 0.0 2.0) (iv 5.0 7.0))

let test_success_known_case () =
  (* X ~ U(0,1), Y ~ U(0,1), P(|X-Y| <= 0.5) = 1 - 2*(0.5^2/2) = 0.75. *)
  checkf 1e-9 "unit square band" 0.75
    (Pair_distance.success ~epsilon:0.5 (iv 0.0 1.0) (iv 0.0 1.0));
  (* Degenerate left: P(|0.5 - Y| <= 0.25), Y ~ U(0,1) = 0.5. *)
  checkf 1e-9 "point vs interval" 0.5
    (Pair_distance.success ~epsilon:0.25 (Interval.point 0.5) (iv 0.0 1.0));
  (* Degenerate right, asymmetric clip. *)
  checkf 1e-9 "interval vs point" 0.25
    (Pair_distance.success ~epsilon:0.25 (iv 0.0 1.0) (Interval.point 0.0))

(* Monte-Carlo cross-check of the exact piecewise integral. *)
let prop_success_matches_monte_carlo =
  QCheck2.Test.make ~name:"pair success matches Monte Carlo" ~count:60
    QCheck2.Gen.(
      let iv_gen =
        let* lo = float_range (-10.0) 10.0 in
        let* w = float_range 0.2 8.0 in
        return (iv lo (lo +. w))
      in
      triple iv_gen iv_gen (float_range 0.1 6.0))
    (fun (a, b, epsilon) ->
      let exact = Pair_distance.success ~epsilon a b in
      let rng = Rng.create 77 in
      let n = 20000 in
      let hits = ref 0 in
      for _ = 1 to n do
        let x = Interval.sample rng a and y = Interval.sample rng b in
        if Float.abs (x -. y) <= epsilon then incr hits
      done;
      let mc = float_of_int !hits /. float_of_int n in
      Float.abs (exact -. mc) < 0.02)

let prop_distance_interval_sound =
  QCheck2.Test.make ~name:"distance interval contains sampled distances"
    ~count:200
    QCheck2.Gen.(
      let iv_gen =
        let* lo = float_range (-20.0) 20.0 in
        let* w = float_range 0.0 10.0 in
        return (iv lo (lo +. w))
      in
      pair iv_gen iv_gen)
    (fun (a, b) ->
      let d = Pair_distance.distance_interval a b in
      let rng = Rng.create 3 in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Interval.sample rng a and y = Interval.sample rng b in
        if not (Interval.contains d (Float.abs (x -. y))) then ok := false
      done;
      !ok)

(* ---- the join operator -------------------------------------------- *)

let relations seed n_left n_right =
  let rng = Rng.create seed in
  let gen n =
    Interval_data.uniform_intervals rng ~n ~value_range:(iv 0.0 100.0)
      ~max_width:10.0
  in
  (gen n_left, gen n_right)

let test_join_exact_under_perfect_quality () =
  let left, right = relations 1 30 30 in
  let epsilon = 5.0 in
  let requirements = Quality.requirements ~precision:1.0 ~recall:1.0 ~laxity:0.0 in
  let report =
    Band_join.run ~rng:(Rng.create 2) ~requirements ~epsilon ~left ~right ()
  in
  checki "answer equals exact join" (Band_join.exact_size ~epsilon left right)
    report.answer_size;
  List.iter
    (fun (e : Band_join.pair Operator.emitted) ->
      checkb "pair truly joins" true (Band_join.in_exact ~epsilon e.obj))
    report.answer;
  checkb "meets" true (Quality.meets report.guarantees requirements)

let test_probe_cache_bounds_probes () =
  let left, right = relations 3 40 40 in
  let requirements = Quality.requirements ~precision:1.0 ~recall:1.0 ~laxity:0.0 in
  let report =
    Band_join.run ~rng:(Rng.create 4) ~requirements ~epsilon:5.0 ~left ~right ()
  in
  (* 1600 pairs, but at most 80 distinct objects can ever be fetched. *)
  checkb "object probes bounded by objects" true (report.object_probes <= 80);
  checki "charged once per object" report.object_probes report.counts.probes;
  checkb "cache actually hit" true (report.probe_requests > report.object_probes)

(* The probe cache is now the cross-query broker underneath; the join's
   historical accounting must be unchanged on both sides of the
   share_probes switch.  Without sharing every request re-fetches — the
   broker's zero freshness window — so requests and fetches coincide. *)
let test_probe_cache_unshared_accounting () =
  let left, right = relations 3 40 40 in
  let requirements =
    Quality.requirements ~precision:1.0 ~recall:1.0 ~laxity:0.0
  in
  let run share =
    Band_join.run ~rng:(Rng.create 4) ~share_probes:share ~requirements
      ~epsilon:5.0 ~left ~right ()
  in
  let unshared = run false in
  checki "unshared: every request fetches" unshared.probe_requests
    unshared.object_probes;
  checki "unshared: every fetch charged" unshared.object_probes
    unshared.counts.probes;
  let shared = run true in
  checkb "sharing strictly cheaper" true
    (shared.counts.probes < unshared.counts.probes)

let test_join_guarantee_soundness () =
  let left, right = relations 5 50 40 in
  let epsilon = 4.0 in
  let requirements = Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:8.0 in
  let report =
    Band_join.run ~rng:(Rng.create 6) ~policy:Policy.stingy ~requirements
      ~epsilon ~left ~right ()
  in
  checkb "meets requirements" true (Quality.meets report.guarantees requirements);
  let answer_in_exact =
    List.length
      (List.filter (fun e -> Band_join.in_exact ~epsilon e.Operator.obj) report.answer)
  in
  let actual_p =
    Quality.Diagnostics.precision ~answer_size:report.answer_size
      ~answer_in_exact
  in
  let actual_r =
    Quality.Diagnostics.recall
      ~exact_size:(Band_join.exact_size ~epsilon left right)
      ~answer_in_exact
  in
  checkb "actual precision dominates guarantee" true
    (actual_p >= report.guarantees.precision -. 1e-9);
  checkb "actual recall dominates guarantee" true
    (actual_r >= report.guarantees.recall -. 1e-9)

let test_join_early_termination () =
  let left, right = relations 7 60 60 in
  let requirements = Quality.requirements ~precision:0.8 ~recall:0.05 ~laxity:20.0 in
  let report =
    Band_join.run ~rng:(Rng.create 8) ~requirements ~epsilon:5.0 ~left ~right ()
  in
  checkb "read only part of the pair space" true
    (report.counts.reads < report.pairs_total);
  checkb "not exhausted" false report.exhausted

let test_join_validation () =
  let left, right = relations 9 2 2 in
  Alcotest.check_raises "negative epsilon"
    (Invalid_argument "Band_join.run: epsilon < 0") (fun () ->
      ignore
        (Band_join.run ~rng:(Rng.create 1)
           ~requirements:(Quality.requirements ~precision:0.5 ~recall:0.5 ~laxity:10.0)
           ~epsilon:(-1.0) ~left ~right ()));
  Alcotest.check_raises "NaN epsilon"
    (Invalid_argument "Band_join.run: epsilon < 0") (fun () ->
      ignore
        (Band_join.run ~rng:(Rng.create 1)
           ~requirements:(Quality.requirements ~precision:0.5 ~recall:0.5 ~laxity:10.0)
           ~epsilon:Float.nan ~left ~right ()))

let prop_join_soundness_random =
  QCheck2.Test.make ~name:"join guarantees sound on random relations"
    ~count:40
    QCheck2.Gen.(
      quad (int_range 0 1000) (float_range 0.3 1.0) (float_range 0.0 0.8)
        (float_range 1.0 8.0))
    (fun (seed, p_q, r_q, epsilon) ->
      let left, right = relations seed 25 25 in
      let requirements =
        Quality.requirements ~precision:p_q ~recall:r_q ~laxity:12.0
      in
      let report =
        Band_join.run ~rng:(Rng.create (seed + 1)) ~policy:Policy.greedy
          ~requirements ~epsilon ~left ~right ()
      in
      let answer_in_exact =
        List.length
          (List.filter
             (fun e -> Band_join.in_exact ~epsilon e.Operator.obj)
             report.answer)
      in
      Quality.meets report.guarantees requirements
      && Quality.Diagnostics.precision ~answer_size:report.answer_size
           ~answer_in_exact
         >= report.guarantees.precision -. 1e-9)

(* [Band_join.run] against the hand-written pair loop it replaced
   ([Reference_band_join]): the whole report and the emission stream,
   in order, bit for bit.  Some records are stored exact, so the cache
   refresh and the probe's stored-pair view both matter. *)
type join_case = {
  seed : int;
  n_left : int;
  n_right : int;
  exact_share : float;
  epsilon : float;
  requirements : Quality.requirements;
  policy : [ `Stingy | `Greedy | `Qaq of Policy.params ];
  share_probes : bool;
  collect : bool;
}

let show_join_case c =
  Printf.sprintf
    "seed=%d %dx%d exact=%.2f eps=%g req=%s policy=%s share=%b collect=%b"
    c.seed c.n_left c.n_right c.exact_share c.epsilon
    (Format.asprintf "%a" Quality.pp_requirements c.requirements)
    (match c.policy with
    | `Stingy -> "stingy"
    | `Greedy -> "greedy"
    | `Qaq p -> Format.asprintf "qaq %a" Policy.pp_params p)
    c.share_probes c.collect

let join_case_gen =
  QCheck2.Gen.(
    let unit = float_range 0.0 1.0 in
    let* seed = int_range 0 100_000 in
    let* n_left = int_range 0 14 in
    let* n_right = int_range 0 14 in
    let* exact_share = oneofl [ 0.0; 0.3 ] in
    let* epsilon = float_range 0.0 12.0 in
    let* p = unit and* r = unit and* l = float_range 0.0 15.0 in
    let* policy =
      oneof
        [
          return `Stingy;
          return `Greedy;
          (let* s3 = unit and* s5 = unit and* p_py = unit and* p_fm = unit in
           return (`Qaq (Policy.params ~s3 ~s5 ~p_py ~p_fm)));
        ]
    in
    let* share_probes = bool and* collect = bool in
    return
      {
        seed;
        n_left;
        n_right;
        exact_share;
        epsilon;
        requirements = Quality.requirements ~precision:p ~recall:r ~laxity:l;
        policy;
        share_probes;
        collect;
      })

let prop_join_is_reference =
  QCheck2.Test.make ~name:"join on Operator.run is the reference pair loop"
    ~count:400 ~print:show_join_case join_case_gen (fun c ->
      let rng = Rng.create c.seed in
      let gen n =
        Array.map
          (fun r ->
            if Rng.float rng 1.0 < c.exact_share then Interval_data.probe r
            else r)
          (Interval_data.uniform_intervals rng ~n
             ~value_range:(iv 0.0 40.0) ~max_width:8.0)
      in
      let left = gen c.n_left in
      let right = gen c.n_right in
      let policy =
        match c.policy with
        | `Stingy -> Policy.stingy
        | `Greedy -> Policy.greedy
        | `Qaq p -> Policy.qaq p
      in
      let outcome run =
        let emitted = ref [] in
        let emit (e : Band_join.pair Operator.emitted) =
          emitted := e :: !emitted
        in
        match run ~rng:(Rng.create (c.seed + 1)) ~emit with
        | report -> Ok (report, List.rev !emitted)
        | exception e -> Error (Printexc.to_string e)
      in
      (* The library's scalar pair probe resolves at submission, so its
         collected answer is its delivery order: the stream a collecting
         run would have emitted. *)
      let library =
        outcome (fun ~rng ~emit ->
            let join collect =
              Band_join.run ~rng:(Rng.copy rng) ~collect
                ~share_probes:c.share_probes ~policy
                ~requirements:c.requirements ~epsilon:c.epsilon ~left ~right ()
            in
            let report = join c.collect in
            List.iter emit (join true).answer;
            report)
      in
      let reference =
        outcome (fun ~rng ~emit ->
            Reference_band_join.run ~rng ~emit ~collect:c.collect
              ~share_probes:c.share_probes ~policy
              ~requirements:c.requirements ~epsilon:c.epsilon ~left ~right ())
      in
      library = reference)

let suite =
  [
    ("distance interval", `Quick, test_distance_interval);
    ("pair classification", `Quick, test_classify);
    ("success probability closed forms", `Quick, test_success_known_case);
    QCheck_alcotest.to_alcotest prop_success_matches_monte_carlo;
    QCheck_alcotest.to_alcotest prop_distance_interval_sound;
    ("perfect quality returns the exact join", `Quick, test_join_exact_under_perfect_quality);
    ("probe cache charges each object once", `Quick, test_probe_cache_bounds_probes);
    ("unshared cache accounting unchanged", `Quick, test_probe_cache_unshared_accounting);
    ("guarantee soundness", `Quick, test_join_guarantee_soundness);
    ("early termination", `Quick, test_join_early_termination);
    ("validation", `Quick, test_join_validation);
    QCheck_alcotest.to_alcotest prop_join_soundness_random;
    QCheck_alcotest.to_alcotest prop_join_is_reference;
  ]
