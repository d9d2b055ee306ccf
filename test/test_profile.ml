(* Tests for the per-query profiler and the Chrome-trace exporter: the
   profiled run must be bit-for-bit the unprofiled run, the quality
   audit's arithmetic must be exact (degenerate denominators included),
   and both exporters must emit well-formed JSON — checked with a local
   validator, since the test suite links no JSON library. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- minimal JSON validator -------------------------------------- *)

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c = if peek () = Some c then incr pos else fail () in
  let literal l =
    let m = String.length l in
    if !pos + m <= n && String.sub s !pos m = l then pos := !pos + m
    else fail ()
  in
  let string_lit () =
    expect '"';
    let rec go () =
      if !pos >= n then fail ()
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            pos := !pos + 2;
            go ()
        | _ ->
            incr pos;
            go ()
    in
    go ()
  in
  let digits () =
    let d = ref 0 in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos;
      incr d
    done;
    if !d = 0 then fail ()
  in
  let number () =
    if peek () = Some '-' then incr pos;
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> fail ()
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            elems ()
        | Some ']' -> incr pos
        | _ -> fail ()
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_json_validator () =
  List.iter
    (fun (doc, ok) ->
      checkb (Printf.sprintf "validator on %s" doc) ok (json_valid doc))
    [
      ({|{"a": 1, "b": [true, null, -2.5e3], "c": "x\"y"}|}, true);
      ("[]", true);
      ("{", false);
      ({|{"a": }|}, false);
      ({|{"a": 1} trailing|}, false);
      ("[1, 2,]", false);
    ]

(* ---- the golden invariant: profiling perturbs nothing -------------- *)

let requirements = Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0

(* One profiled-or-plain run.  [metered] attaches an observability
   capability to the engine and its driver, as an instrumented
   deployment would. *)
type input = {
  label : string;
  data : Synthetic.obj array;
  seed : int;
  requirements : Quality.requirements;
  batch : int;
  adaptive : bool;
  metered : bool;
  domains : int;
}

let run_engine ?profile input =
  let obs = if input.metered then Some (Obs.create ()) else None in
  Engine.run ~rng:(Rng.create input.seed) ~adaptive:input.adaptive
    ~max_laxity:100.0 ~domains:input.domains ?obs ?profile
    ~instance:Synthetic.instance
    ~probe:(Probe_driver.of_scalar ?obs ~batch_size:input.batch Synthetic.probe)
    ~requirements:input.requirements
    (Scan_pipeline.rows ~instance:Synthetic.instance input.data)

(* This file's own workload at B = 4 on one and two domains, then the
   standard workload under every standard configuration, metered. *)
let inputs =
  let own =
    Synthetic.generate (Rng.create 71) (Synthetic.config ~total:2000 ())
  in
  let base =
    { label = "B4"; data = own; seed = 72; requirements; batch = 4;
      adaptive = false; metered = false; domains = 1 }
  in
  let standard = Standard_workload.data () in
  [ base; { base with domains = 2 } ]
  @ List.map
      (fun (label, batch, adaptive) ->
        { label; data = standard;
          seed = Standard_workload.engine_seed;
          requirements = Standard_workload.requirements; batch; adaptive;
          metered = true; domains = 1 })
      Standard_workload.configs

let test_profiled_run_is_pure () =
  List.iter
    (fun input ->
      let plain = run_engine input in
      let profiled =
        run_engine
          ~profile:
            (Engine.profiling ~label:input.label ~oracle:Synthetic.in_exact ())
          input
      in
      let tag msg =
        Printf.sprintf "%s (%s, seed %d, domains=%d)" msg input.label
          input.seed input.domains
      in
      checkb (tag "same counts") true
        (plain.Engine.counts = profiled.Engine.counts);
      checkb (tag "same answer, element for element") true
        (plain.Engine.report.Operator.answer
        = profiled.Engine.report.Operator.answer);
      checki (tag "same answer size")
        plain.Engine.report.Operator.answer_size
        profiled.Engine.report.Operator.answer_size;
      checkf 0.0 (tag "same normalized cost") plain.Engine.normalized_cost
        profiled.Engine.normalized_cost;
      checkb (tag "same guarantees") true
        (plain.Engine.report.Operator.guarantees
        = profiled.Engine.report.Operator.guarantees);
      checkb (tag "plain run has no profile") true
        (plain.Engine.profile = None);
      match profiled.Engine.profile with
      | None -> Alcotest.fail (tag "profiled run returned no profile")
      | Some p ->
          checkb (tag "counters reconcile") true
            (p.Profile.reconcile_error = None);
          checkb (tag "audit passed") true (Profile.passed p))
    inputs

(* ---- audit arithmetic --------------------------------------------- *)

let mk_counts =
  {
    Profile.reads = 100;
    probes = 10;
    batches = 3;
    writes_imprecise = 0;
    writes_precise = 0;
  }

let make_profile ?reconcile_error ~answer_size ~ground_truth () =
  Profile.make ~counts:mk_counts ~snapshot:[] ~requested_precision:0.8
    ~requested_recall:0.5 ~guaranteed_precision:0.9 ~guaranteed_recall:0.6
    ~guarantees_met:true ~answer_size ~ground_truth ?reconcile_error ()

let test_audit_math () =
  let p = make_profile ~answer_size:10 ~ground_truth:(9, 12) () in
  (match p.Profile.audit.achieved with
  | None -> Alcotest.fail "achieved missing despite ground truth"
  | Some a ->
      checki "answer_in_exact" 9 a.Profile.answer_in_exact;
      checki "exact_size" 12 a.Profile.exact_size;
      checkf 1e-12 "achieved precision" 0.9 a.Profile.achieved_precision;
      checkf 1e-12 "achieved recall" 0.75 a.Profile.achieved_recall;
      checkb "precision passes" true a.Profile.precision_pass;
      checkb "recall passes" true a.Profile.recall_pass);
  checkb "audit passed" true (Profile.audit_passed p);
  checkb "profile passed" true (Profile.passed p);
  (* Missed precision: 6/10 = 0.6 < 0.8 requested. *)
  let miss = make_profile ~answer_size:10 ~ground_truth:(6, 12) () in
  (match miss.Profile.audit.achieved with
  | Some a -> checkb "precision fails" false a.Profile.precision_pass
  | None -> Alcotest.fail "achieved missing");
  checkb "missed audit fails the profile" false (Profile.passed miss);
  (* A reconcile error fails the profile even when the audit is clean. *)
  let r =
    make_profile ~reconcile_error:"qaq.reads: metrics say 1, meter says 2"
      ~answer_size:10 ~ground_truth:(9, 12) ()
  in
  checkb "audit still passes" true (Profile.audit_passed r);
  checkb "reconcile error fails the profile" false (Profile.passed r)

(* Degenerate denominators follow Quality.Diagnostics: an empty answer
   is vacuously precise, an empty exact answer fully recalled. *)
let test_audit_degenerate () =
  let p = make_profile ~answer_size:0 ~ground_truth:(0, 0) () in
  match p.Profile.audit.achieved with
  | None -> Alcotest.fail "achieved missing"
  | Some a ->
      checkf 0.0 "empty answer precision" 1.0 a.Profile.achieved_precision;
      checkf 0.0 "empty exact recall" 1.0 a.Profile.achieved_recall;
      checkb "both pass" true (a.Profile.precision_pass && a.Profile.recall_pass)

(* ---- a fully instrumented run: histograms, spans, exports ---------- *)

let instrumented_run () =
  let data =
    Synthetic.generate (Rng.create 81) (Synthetic.config ~total:2000 ())
  in
  let obs = Obs.create () in
  let result =
    Engine.run ~rng:(Rng.create 82) ~max_laxity:100.0 ~obs
      ~profile:(Engine.profiling ~label:"instrumented" ~oracle:Synthetic.in_exact ())
      ~instance:Synthetic.instance
      ~probe:(Probe_driver.of_scalar ~obs ~batch_size:4 Synthetic.probe)
      ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  (result, Option.get result.Engine.profile)

let test_profile_of_run () =
  let result, p = instrumented_run () in
  Alcotest.(check string) "label" "instrumented" p.Profile.label;
  checki "profile reads mirror the meter" result.Engine.counts.Cost_meter.reads
    p.Profile.counts.Profile.reads;
  checki "profile probes mirror the meter"
    result.Engine.counts.Cost_meter.probes p.Profile.counts.Profile.probes;
  checkf 1e-12 "requested precision" 0.9
    p.Profile.audit.Profile.requested_precision;
  checkb "guarantees met" true p.Profile.audit.Profile.guarantees_met;
  (* The hot-site histograms made it into the snapshot: one flush timing
     per metered batch, one laxity/success observation per MAYBE. *)
  (match Metrics.dist_of p.Profile.snapshot "probe_driver.flush_seconds" with
  | Some d ->
      checki "one flush observation per batch"
        result.Engine.counts.Cost_meter.batches d.Metrics.d_count
  | None -> Alcotest.fail "flush histogram missing");
  (match Metrics.dist_of p.Profile.snapshot "qaq.maybe.laxity" with
  | Some d -> checkb "maybe laxity observed" true (d.Metrics.d_count > 0)
  | None -> Alcotest.fail "maybe.laxity histogram missing");
  (match Metrics.dist_of p.Profile.snapshot "qaq.maybe.success" with
  | Some d ->
      checkb "success observations are probabilities" true
        (d.Metrics.d_min >= 0.0 && d.Metrics.d_max <= 1.0)
  | None -> Alcotest.fail "maybe.success histogram missing");
  let span_names =
    List.map (fun r -> r.Profile.span_name) p.Profile.spans
  in
  checkb "plan span present" true (List.mem "plan" span_names);
  checkb "scan span present" true (List.mem "scan" span_names);
  (* Both renderings are well-formed and carry the audit. *)
  let json = Profile.to_json p in
  checkb "profile JSON is valid" true (json_valid json);
  checkb "profile JSON carries the label" true
    (contains json "\"label\": \"instrumented\"");
  let text = Profile.render p in
  checkb "render mentions the quality audit" true
    (contains text "quality audit")

(* ---- Chrome-trace export ------------------------------------------ *)

let test_chrome_trace_export () =
  let recorder = Chrome_trace.create () in
  let domains = 2 in
  Chrome_trace.declare_lanes recorder domains;
  let obs = Obs.create ~trace:(Chrome_trace.sink recorder) () in
  let data =
    Synthetic.generate (Rng.create 91) (Synthetic.config ~total:1000 ())
  in
  ignore
    (Engine.run ~rng:(Rng.create 92) ~max_laxity:100.0 ~domains ~obs
       ~on_task:(Chrome_trace.on_task recorder)
       ~instance:Synthetic.instance
       ~probe:(Probe_driver.of_scalar ~obs ~batch_size:4 Synthetic.probe)
       ~requirements (Scan_pipeline.rows ~instance:Synthetic.instance data));
  checkb "events recorded" true (Chrome_trace.events recorder > 0);
  let json = Chrome_trace.to_json recorder in
  checkb "trace JSON is valid" true (json_valid json);
  checkb "traceEvents array present" true (contains json "\"traceEvents\"");
  (* One named timeline lane per configured domain, lane 0 included. *)
  checkb "lane 0 named" true (contains json "\"lane 0 (caller)\"");
  checkb "lane 1 named" true (contains json "\"lane 1\"");
  checkb "no lane beyond the configured count" false (contains json "\"lane 2\"");
  (* The engine's spans arrive as complete ("X") slices. *)
  checkb "complete slices present" true (contains json "\"ph\": \"X\"")

let test_chrome_trace_lane_validation () =
  let r = Chrome_trace.create () in
  Alcotest.check_raises "zero lanes rejected"
    (Invalid_argument "Chrome_trace.declare_lanes: lanes < 1") (fun () ->
      Chrome_trace.declare_lanes r 0);
  (* An empty recorder still exports a valid document. *)
  checkb "empty trace JSON valid" true (json_valid (Chrome_trace.to_json r))

let suite =
  [
    ("json validator self-test", `Quick, test_json_validator);
    ("profiled run is bit-for-bit the unprofiled run", `Quick,
     test_profiled_run_is_pure);
    ("audit arithmetic", `Quick, test_audit_math);
    ("audit degenerate denominators", `Quick, test_audit_degenerate);
    ("profile of an instrumented run", `Quick, test_profile_of_run);
    ("chrome trace export", `Quick, test_chrome_trace_export);
    ("chrome trace lane validation", `Quick, test_chrome_trace_lane_validation);
  ]
