(* The anytime contract of time-budgeted execution: quality monotone in
   the budget, spend never past the allotment (beyond the pilot sample),
   and [budget = infinity] bit-for-bit the unbudgeted run. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let requirements = Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0
let total = 3000
let data = Synthetic.generate (Rng.create 101) (Synthetic.config ~total ())

let run ?budget ?deadline ?(domains = 1) () =
  Engine.run ~rng:(Rng.create 102) ~max_laxity:100.0 ~domains ?budget
    ?deadline ~instance:Synthetic.instance
    ~probe:(Probe_driver.scalar Synthetic.probe)
    ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)

(* The oracle audit of a run over [data] (the module's own workload, or
   the one a local ladder scans). *)
let achieved ?(data = data) result =
  let profile =
    Profile.of_run ~oracle:Synthetic.in_exact ~earlier:[] (Obs.create ())
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
      result
  in
  Option.get profile.Profile.audit.Profile.achieved

let summary result =
  match result.Engine.budget with
  | Some s -> s
  | None -> Alcotest.fail "expected a budget summary"

(* The comparable fingerprint of a run, excluding the budget summary
   (which is the one field a budgeted run is allowed to add). *)
let fingerprint result =
  ( List.map
      (fun (e : Synthetic.obj Operator.emitted) ->
        (e.Operator.obj.Synthetic.id, e.Operator.precise))
      result.Engine.report.Operator.answer,
    result.Engine.counts,
    result.Engine.report.Operator.guarantees,
    result.Engine.normalized_cost,
    result.Engine.report.Operator.stopped_early )

(* --- golden: budget = infinity --------------------------------------- *)

let test_infinite_budget_is_identity () =
  List.iter
    (fun domains ->
      let plain = run ~domains () in
      let budgeted = run ~budget:infinity ~domains () in
      checkb
        (Printf.sprintf "identical fingerprint at domains=%d" domains)
        true
        (fingerprint plain = fingerprint budgeted);
      checkb "unbudgeted run carries no summary" true
        (plain.Engine.budget = None);
      let s = summary budgeted in
      checkf "allotted is infinite" infinity s.Engine.allotted;
      checkf "spent is the run's cost"
        (plain.Engine.normalized_cost *. float_of_int total)
        s.Engine.spent;
      checkb "not limited" false s.Engine.budget_limited;
      checkb "not stopped early" false s.Engine.stopped_early;
      checki "no budget replans" 0 s.Engine.budget_replans;
      checkf "target recall is the requested recall" 0.6 s.Engine.target_recall)
    [ 1; 2 ]

(* --- budget sweep: memoized ladder ----------------------------------- *)

(* A quantized ladder of budgets, each run once.  Rung 0 is enough to
   cover the pilot sample plus a little scanning; the top rungs exceed
   the unbudgeted cost, so the sweep spans budget-starved to ample. *)
let ladder_budget k = 500.0 *. Float.of_int (1 lsl k)
let rungs = 8

let ladder =
  let cache = Hashtbl.create rungs in
  fun k ->
    match Hashtbl.find_opt cache k with
    | Some r -> r
    | None ->
        let r = run ~budget:(ladder_budget k) () in
        Hashtbl.add cache k r;
        r

let test_budget_is_respected () =
  for k = 0 to rungs - 1 do
    let result = ladder k in
    let s = summary result in
    checkf
      (Printf.sprintf "allotted recorded at rung %d" k)
      (ladder_budget k) s.Engine.allotted;
    (* Zero overshoot: every rung's allotment covers the pilot sample
       (~1% of 3000 reads), so the whole spend must fit the budget. *)
    checkb
      (Printf.sprintf "spent %.1f within budget %.1f" s.Engine.spent
         s.Engine.allotted)
      true
      (s.Engine.spent <= s.Engine.allotted +. 1e-9);
    checkf "remaining is the complement"
      (Float.max 0.0 (s.Engine.allotted -. s.Engine.spent))
      s.Engine.remaining;
    checkb "target never exceeds the requested recall" true
      (s.Engine.target_recall <= 0.6 +. 1e-9);
    checkb "stopping early implies budget-limited" true
      ((not s.Engine.stopped_early) || s.Engine.budget_limited);
    (* The spend the summary reports is the meter's, i.e. the run's
       normalized cost times |T|. *)
    checkf "summary spend matches the metered cost"
      (result.Engine.normalized_cost *. float_of_int total)
      s.Engine.spent;
    (* Precision stays a hard constraint at every budget. *)
    checkb "achieved precision holds at every budget" true
      ((achieved result).Profile.achieved_precision >= 0.9 -. 1e-9)
  done

let test_sweep_spans_the_contract () =
  (* The ladder actually exercises both regimes: the bottom rung is
     budget-limited, the top rung reaches the requested recall. *)
  let bottom = summary (ladder 0) and top = summary (ladder (rungs - 1)) in
  checkb "bottom rung budget-limited" true bottom.Engine.budget_limited;
  checkb "top rung reaches the requested target" true
    (top.Engine.target_recall >= 0.6 -. 1e-9);
  checkb "top rung not stopped early" false top.Engine.stopped_early;
  (* And an ample budget delivers the requested recall for real. *)
  checkb "top rung achieves the requested recall" true
    ((achieved (ladder (rungs - 1))).Profile.achieved_recall >= 0.6 -. 1e-9)

let prop_quality_monotone_in_budget =
  QCheck2.Test.make ~name:"achieved quality monotone in budget" ~count:24
    QCheck2.Gen.(pair (int_range 0 (rungs - 1)) (int_range 0 (rungs - 1)))
    (fun (i, j) ->
      let i, j = (Int.min i j, Int.max i j) in
      let lo = achieved (ladder i) and hi = achieved (ladder j) in
      let lo_s = summary (ladder i) and hi_s = summary (ladder j) in
      lo.Profile.achieved_recall <= hi.Profile.achieved_recall +. 1e-9
      && (ladder i).Engine.report.Operator.answer_size
         <= (ladder j).Engine.report.Operator.answer_size
      && lo_s.Engine.target_recall <= hi_s.Engine.target_recall +. 1e-9)

(* --- the adaptive B = 4 ladder on the standard workload ---------------- *)

(* Every rung runs adaptive at B = 4, so a finite budget's mid-scan dual
   re-solves and the unbudgeted ends share one machinery.  Batched
   probing may overshoot the allotment by at most one probe batch;
   precision holds on every rung; achieved recall and answer size never
   fall as the budget grows; the top rung reaches the requested recall;
   and an infinite budget is the unbudgeted run. *)
let test_adaptive_ladder () =
  let data = Standard_workload.data () in
  let batch = 4 in
  let run ?budget () =
    let obs = Obs.create () in
    Engine.run ~rng:(Rng.create Standard_workload.engine_seed) ?budget
      ~adaptive:true ~max_laxity:100.0 ~obs ~instance:Synthetic.instance
      ~probe:(Probe_driver.of_scalar ~obs ~batch_size:batch Synthetic.probe)
      ~requirements:Standard_workload.requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let achieved = achieved ~data in
  let batch_cost =
    float_of_int batch
    *. Cost_model.amortized_probe Cost_model.paper ~batch
  in
  let rungs =
    List.map
      (fun b -> (b, run ~budget:b ()))
      [ 1_500.0; 4_000.0; 10_000.0; 30_000.0; infinity ]
  in
  List.iter
    (fun (b, result) ->
      let s = summary result in
      checkb
        (Printf.sprintf "budget %g: spent %.1f within one batch of %.1f" b
           s.Engine.spent s.Engine.allotted)
        true
        (s.Engine.spent <= s.Engine.allotted +. batch_cost);
      checkb
        (Printf.sprintf "budget %g: achieved precision holds" b)
        true
        ((achieved result).Profile.achieved_precision >= 0.9 -. 1e-9))
    rungs;
  let rec monotone = function
    | (lo_b, lo) :: ((hi_b, hi) :: _ as rest) ->
        checkb
          (Printf.sprintf "recall monotone from %g to %g" lo_b hi_b)
          true
          ((achieved lo).Profile.achieved_recall
          <= (achieved hi).Profile.achieved_recall +. 1e-9);
        checkb
          (Printf.sprintf "answer size monotone from %g to %g" lo_b hi_b)
          true
          (lo.Engine.report.Operator.answer_size
          <= hi.Engine.report.Operator.answer_size);
        monotone rest
    | _ -> ()
  in
  monotone rungs;
  let _, top = List.nth rungs (List.length rungs - 1) in
  checkb "top rung achieves the requested recall" true
    ((achieved top).Profile.achieved_recall >= 0.6 -. 1e-9);
  checkb "infinite budget is the unbudgeted run" true
    (fingerprint top = fingerprint (run ()))

(* --- deadline -------------------------------------------------------- *)

let test_deadline_smoke () =
  (* A generous deadline changes nothing but the summary; a zero
     deadline stops the scan at the first opportunity. *)
  let plain = run () in
  let generous = run ~deadline:3600.0 () in
  checkb "generous deadline is the plain run" true
    (fingerprint plain = fingerprint generous);
  let s = summary generous in
  checkf "deadline-only summary has infinite allotment" infinity
    s.Engine.allotted;
  checkb "not stopped" false s.Engine.stopped_early;
  let immediate = run ~deadline:0.0 () in
  let s0 = summary immediate in
  checkb "zero deadline stops the scan" true s0.Engine.stopped_early;
  checkb "and flags the run budget-limited" true s0.Engine.budget_limited;
  checkb "answer cut short" true
    (immediate.Engine.report.Operator.answer_size
    <= plain.Engine.report.Operator.answer_size)

let test_validation () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Engine.run: budget must be non-negative") (fun () ->
      ignore (run ~budget:(-1.0) ()));
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Engine.run: deadline must be non-negative")
    (fun () -> ignore (run ~deadline:(-0.5) ()))

let suite =
  [
    ("budget = infinity is the unbudgeted run", `Quick,
     test_infinite_budget_is_identity);
    ("budget respected on every rung", `Slow, test_budget_is_respected);
    ("sweep spans starved to ample", `Slow, test_sweep_spans_the_contract);
    QCheck_alcotest.to_alcotest prop_quality_monotone_in_budget;
    ("adaptive B=4 ladder on the standard workload", `Quick,
     test_adaptive_ladder);
    ("deadline smoke", `Quick, test_deadline_smoke);
    ("validation", `Quick, test_validation);
  ]
