(* Tests for the per-query profiler and the Chrome-trace exporter: the
   profiled run must be bit-for-bit the unprofiled run, the quality
   audit's arithmetic must be exact (degenerate denominators included),
   and both exporters must emit well-formed JSON — checked with a local
   validator, since the test suite links no JSON library. *)

(* The document [Chrome_trace.write] saves. *)
let chrome_json r =
  let path = Filename.temp_file "imprecise_chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome_trace.write r path;
      In_channel.with_open_bin path In_channel.input_all)

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

(* One plain-or-profiled run.  [metered] attaches an observability
   capability to the engine and its driver, as an instrumented
   deployment would; a profiled run always hands the engine a registry
   to fold over. *)
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

let source input = Scan_pipeline.rows ~instance:Synthetic.instance input.data

let run_engine ?obs input =
  let driver_obs = if input.metered then obs else None in
  Engine.run ~rng:(Rng.create input.seed) ~adaptive:input.adaptive
    ~max_laxity:100.0 ~domains:input.domains ?obs
    ~instance:Synthetic.instance
    ~probe:
      (Probe_driver.of_scalar ?obs:driver_obs ~batch_size:input.batch
         Synthetic.probe)
    ~requirements:input.requirements (source input)

let profiled_run ?label ?oracle input =
  let obs = Obs.create () in
  let earlier = Obs.snapshot obs in
  let result = run_engine ~obs input in
  (result, Profile.of_run ?label ?oracle ~earlier obs (source input) result)

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
      let plain =
        run_engine ?obs:(if input.metered then Some (Obs.create ()) else None)
          input
      in
      let profiled, p =
        profiled_run ~label:input.label ~oracle:Synthetic.in_exact input
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
      checkb (tag "counters reconcile") true (p.Profile.reconcile_error = None);
      checkb (tag "audit passed") true (Profile.passed p))
    inputs

(* ---- audit arithmetic --------------------------------------------- *)

(* The achieved rates are the oracle's counts over the answer and over
   the source, recounted here independently; a pass is achieved >=
   requested. *)
let test_audit_math () =
  let input = List.hd inputs in
  let result, p = profiled_run ~oracle:Synthetic.in_exact input in
  let answer = result.Engine.report.Operator.answer in
  let answer_in_exact =
    List.length
      (List.filter (fun (e : _ Operator.emitted) -> Synthetic.in_exact e.obj)
         answer)
  in
  let exact_size = Synthetic.exact_size input.data in
  let precision =
    float_of_int answer_in_exact /. float_of_int (List.length answer)
  and recall = float_of_int answer_in_exact /. float_of_int exact_size in
  (match p.Profile.audit.achieved with
  | None -> Alcotest.fail "achieved missing despite ground truth"
  | Some a ->
      checki "answer_in_exact" answer_in_exact a.Profile.answer_in_exact;
      checki "exact_size" exact_size a.Profile.exact_size;
      checkf 1e-12 "achieved precision" precision a.Profile.achieved_precision;
      checkf 1e-12 "achieved recall" recall a.Profile.achieved_recall;
      checkb "precision passes" true a.Profile.precision_pass;
      checkb "recall passes" true a.Profile.recall_pass);
  checkb "audit passed" true (Profile.passed { p with Profile.reconcile_error = None });
  checkb "profile passed" true (Profile.passed p);
  (* Missed precision: an oracle that accepts nothing puts the achieved
     precision of a non-empty answer at 0 < 0.9 requested. *)
  let miss =
    Option.get
      (Profile.of_run ~oracle:(fun _ -> false) ~earlier:[] (Obs.create ())
         (source input) result)
        .Profile.audit.achieved
  in
  checkb "non-empty answer" true (answer <> []);
  checkf 0.0 "nothing exact: precision 0" 0.0 miss.Profile.achieved_precision;
  checkb "precision fails" false miss.Profile.precision_pass;
  checkb "missed audit fails the profile" false
    (Profile.passed
       { p with audit = { p.Profile.audit with achieved = Some miss } });
  (* A reconcile error fails the profile even when the audit is clean. *)
  let r =
    { p with reconcile_error = Some "qaq.reads: metrics say 1, meter says 2" }
  in
  checkb "audit still passes" true (Profile.passed { r with Profile.reconcile_error = None });
  checkb "reconcile error fails the profile" false (Profile.passed r)

(* Degenerate denominators follow Quality.Diagnostics: an empty answer
   is vacuously precise, an empty exact answer fully recalled. *)
let test_audit_degenerate () =
  let input = { (List.hd inputs) with data = [||] } in
  let result, p = profiled_run ~oracle:Synthetic.in_exact input in
  checki "empty answer" 0 result.Engine.report.Operator.answer_size;
  match p.Profile.audit.achieved with
  | None -> Alcotest.fail "achieved missing"
  | Some a ->
      checki "empty exact answer" 0 a.Profile.exact_size;
      checkf 0.0 "empty answer precision" 1.0 a.Profile.achieved_precision;
      checkf 0.0 "empty exact recall" 1.0 a.Profile.achieved_recall;
      checkb "both pass" true (a.Profile.precision_pass && a.Profile.recall_pass)

(* ---- a fully instrumented run: histograms, spans, exports ---------- *)

let instrumented_run () =
  let data =
    Synthetic.generate (Rng.create 81) (Synthetic.config ~total:2000 ())
  in
  let source = Scan_pipeline.rows ~instance:Synthetic.instance data in
  let obs = Obs.create () in
  let earlier = Obs.snapshot obs in
  let result =
    Engine.run ~rng:(Rng.create 82) ~max_laxity:100.0 ~obs
      ~instance:Synthetic.instance
      ~probe:(Probe_driver.of_scalar ~obs ~batch_size:4 Synthetic.probe)
      ~requirements source
  in
  ( result,
    Profile.of_run ~label:"instrumented" ~oracle:Synthetic.in_exact ~earlier
      obs source result )

let test_profile_of_run () =
  let result, p = instrumented_run () in
  Alcotest.(check string) "label" "instrumented" p.Profile.label;
  checkb "profile counts are the meter's" true
    (Profile.(p.counts) = result.Engine.counts);
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

(* ---- the fold's two contracts -------------------------------------- *)

let tiered_specs =
  [|
    { Probe_tier.name = "proxy"; kind = Probe_tier.Shrink { power = 0.8 };
      c_p = 0.1; c_b = 1.0; batch = 16 };
    { Probe_tier.name = "oracle"; kind = Probe_tier.Resolve; c_p = 1.0;
      c_b = 5.0; batch = 8 };
  |]

(* One adaptive run through a proxy+oracle cascade instrumented on
   [obs], folded against the snapshot taken just before it. *)
let tiered_profile ~seed obs =
  let data =
    Synthetic.generate (Rng.create 61) (Synthetic.config ~total:1500 ())
  in
  let source = Scan_pipeline.rows ~instance:Synthetic.instance data in
  let cascade, _ =
    Tiered.of_functions ~obs ~specs:tiered_specs
      ~narrow:(fun ~power o -> Synthetic.shrink ~power o)
      ~resolve:Synthetic.probe ()
  in
  let earlier = Obs.snapshot obs in
  let result =
    Engine.run ~rng:(Rng.create seed) ~adaptive:true ~max_laxity:100.0 ~obs
      ~instance:Synthetic.instance ~cascade ~requirements source
  in
  (obs, source, result, earlier)

let fold (obs, source, result, earlier) =
  Profile.of_run ~oracle:Synthetic.in_exact ~earlier obs source result

(* A registry shared with an earlier run still profiles the second run
   alone: the fold against the snapshot taken just before it equals the
   same run's profile on a registry of its own. *)
let test_shared_registry_profiles_one_run () =
  let shared = Obs.create () in
  let first = fold (tiered_profile ~seed:62 shared) in
  let second = fold (tiered_profile ~seed:63 shared) in
  let alone = fold (tiered_profile ~seed:63 (Obs.create ())) in
  let calls p =
    List.map (fun r -> (r.Profile.span_name, r.Profile.calls)) p.Profile.spans
  in
  checkb "the first run did work" true (Profile.(first.counts).reads > 0);
  checkb "same counts" true (Profile.(second.counts = alone.counts));
  checkb "same span call counts" true (calls second = calls alone);
  checkb "spans present" true (calls alone <> []);
  checkb "same audit" true (second.Profile.audit = alone.Profile.audit);
  Alcotest.(check (option string))
    "shared registry reconciles" None second.Profile.reconcile_error;
  Alcotest.(check (option string))
    "private registry reconciles" None alone.Profile.reconcile_error;
  checki "same probe counter delta"
    (Metrics.count_of alone.Profile.snapshot Obs.Keys.probes)
    (Metrics.count_of second.Profile.snapshot Obs.Keys.probes)

(* The per-tier reconcile catches a counter the meter never charged:
   one extra proxy probe on the registry names that key and fails the
   profile. *)
let test_tier_mismatch_is_caught () =
  let ((obs, _, _, _) as run) = tiered_profile ~seed:64 (Obs.create ()) in
  let key = Obs.Keys.tier_probes "proxy" in
  let clean = fold run in
  checkb "the proxy probed" true (Metrics.count_of clean.Profile.snapshot key > 0);
  Alcotest.(check (option string))
    "reconciles before the bump" None clean.Profile.reconcile_error;
  Metrics.add (Obs.counter obs key) 1;
  let p = fold run in
  (match p.Profile.reconcile_error with
  | None -> Alcotest.fail "a per-tier mismatch went unreported"
  | Some msg ->
      checkb (Printf.sprintf "%S names %s" msg key) true (contains msg key));
  checkb "audit itself still passes" true (Profile.passed { p with Profile.reconcile_error = None });
  checkb "the profile fails" false (Profile.passed p)

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
  let json = chrome_json recorder in
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
  checkb "empty trace JSON valid" true (json_valid (chrome_json r))

let suite =
  [
    ("json validator self-test", `Quick, test_json_validator);
    ("profiled run is bit-for-bit the unprofiled run", `Quick,
     test_profiled_run_is_pure);
    ("audit arithmetic", `Quick, test_audit_math);
    ("audit degenerate denominators", `Quick, test_audit_degenerate);
    ("profile of an instrumented run", `Quick, test_profile_of_run);
    ("shared registry profiles one run", `Quick,
     test_shared_registry_profiles_one_run);
    ("per-tier mismatch is caught", `Quick, test_tier_mismatch_is_caught);
    ("chrome trace export", `Quick, test_chrome_trace_export);
    ("chrome trace lane validation", `Quick, test_chrome_trace_lane_validation);
  ]
