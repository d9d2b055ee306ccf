(* Tiered probe cascades: soundness of interval-shrinking proxies, the
   guarantee battery over random cascades, the oracle-only cascade
   pinned to the direct driver's recorded fingerprints, and escalation
   accounting. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let requirements =
  Quality.requirements ~precision:0.85 ~recall:0.55 ~laxity:50.0

(* A cascade over hand-built per-tier sources: a dead proxy (every probe
   fails) in front of a working oracle.  A proxy that never resolves
   needs none of the [Shrunk] re-tagging {!Tiered.of_functions} wires,
   so each tier is its source's plain driver. *)
let dead_proxy_cascade ?obs ~(specs : Probe_tier.spec array) sources =
  Cascade.create ~specs
    (Array.map2
       (fun (spec : Probe_tier.spec) src ->
         Probe_source.driver ?obs ~batch_size:spec.batch src)
       specs sources)

let specs2 ?(power = 0.8) ?(proxy_cp = 0.1) ?(proxy_cb = 1.0)
    ?(proxy_batch = 32) () =
  [|
    {
      Probe_tier.name = "proxy";
      kind = Probe_tier.Shrink { power };
      c_p = proxy_cp;
      c_b = proxy_cb;
      batch = proxy_batch;
    };
    {
      Probe_tier.name = "oracle";
      kind = Probe_tier.Resolve;
      c_p = 1.0;
      c_b = 5.0;
      batch = 8;
    };
  |]

(* --- tier specs: pricing, selection, grammar ------------------------- *)

let test_tier_selection () =
  let specs = specs2 () in
  checkf "proxy amortized price" (0.1 +. (1.0 /. 32.0))
    (Probe_tier.amortized specs.(0));
  checkf "oracle amortized price" (1.0 +. (5.0 /. 8.0))
    (Probe_tier.amortized specs.(1));
  (* Entering at the proxy pays its price plus the residual 20% of the
     oracle; entering at the oracle pays the oracle in full. *)
  checkf "escalation strategy price"
    (0.1 +. (1.0 /. 32.0) +. (0.2 *. (1.0 +. (5.0 /. 8.0))))
    (Probe_tier.select specs).Probe_tier.price;
  checkf "oracle-only strategy price"
    (1.0 +. (5.0 /. 8.0))
    (Probe_tier.select [| specs.(1) |]).Probe_tier.price;
  let plan = Probe_tier.select specs in
  checki "an effective proxy is worth entering" 0 plan.Probe_tier.start;
  (* A powerless, expensive proxy is priced out: start at the oracle. *)
  let bad = specs2 ~power:0.0 ~proxy_cp:0.9 ~proxy_cb:8.0 ~proxy_batch:1 () in
  checki "a useless proxy is skipped" 1 (Probe_tier.select bad).Probe_tier.start

let test_tier_grammar () =
  let spec = "proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8" in
  let specs = Probe_tier.of_string spec in
  checki "two tiers" 2 (Array.length specs);
  checkb "tier 0 is the proxy" true
    (specs.(0).Probe_tier.name = "proxy"
    && specs.(0).Probe_tier.kind = Probe_tier.Shrink { power = 0.8 });
  checkb "tier 1 is the oracle" true
    (specs.(1).Probe_tier.name = "oracle"
    && specs.(1).Probe_tier.kind = Probe_tier.Resolve);
  checkb "to_string round-trips" true
    (Probe_tier.of_string (Format.asprintf "%a" Probe_tier.pp specs) = specs);
  (match Probe_tier.of_string "proxy:cp=0.1,shrink=0.5" with
  | _ -> Alcotest.fail "a cascade without an oracle must be rejected"
  | exception Invalid_argument _ -> ());
  (match Probe_tier.of_string "a:cp=1;b:cp=1,shrink=0.5" with
  | _ -> Alcotest.fail "a Resolve tier before a proxy must be rejected"
  | exception Invalid_argument _ -> ());
  (* Tier names are spliced into metric names, and Prometheus exposition
     maps every character outside [A-Za-z0-9_:] to '_': "a.b" and "a_b"
     are distinct names yet claim the same series, so a name may only
     use [A-Za-z0-9_]. *)
  List.iter
    (fun spec ->
      match Probe_tier.of_string spec with
      | _ -> Alcotest.failf "tier names of %S must be rejected" spec
      | exception Invalid_argument _ -> ())
    [
      "a.b:cp=1,cb=1,B=8,shrink=0.5;a_b:cp=10,cb=5,B=8";
      "proxy-1:cp=0.1,shrink=0.5;oracle:cp=1";
      "tier 2:cp=1";
    ];
  let names = "cheap_1:cp=0.1,shrink=0.5;mid:cp=0.4,shrink=0.5;s:cp=1" in
  checki "names over [A-Za-z0-9_] are accepted" 3
    (Array.length (Probe_tier.of_string names))

(* The --tiers parser on untrusted input: any string either raises
   [Invalid_argument] or yields a cascade that passes [validate] and
   whose per-tier counters all register side by side in one registry.
   Inputs mix arbitrary strings, strings over the grammar's alphabet,
   and near-valid specs whose short names often differ only in '.'
   versus '_'. *)
let gen_tier_spec =
  let open QCheck2.Gen in
  let alphabet = oneofl (List.of_seq (String.to_seq ":;,=.abBcps_019")) in
  let name = string_size ~gen:(oneofl [ 'a'; '.'; '_' ]) (int_range 1 2) in
  let number = oneofl [ "0"; "1"; "0.5"; "8"; "-1"; "nan"; "inf"; "x" ] in
  let field =
    map2
      (fun k v -> k ^ "=" ^ v)
      (oneofl [ "cp"; "cb"; "B"; "shrink"; "batch"; "q" ])
      number
  in
  let tier ~proxy =
    map3
      (fun name cp fields ->
        String.concat ","
          (((name ^ ":cp=" ^ cp) :: (if proxy then [ "shrink=0.5" ] else []))
          @ fields))
      name
      (oneofl [ "0.1"; "1" ])
      (list_size (int_range 0 1) field)
  in
  let cascade =
    map2
      (fun proxies oracle -> String.concat ";" (proxies @ [ oracle ]))
      (list_size (int_range 1 2) (tier ~proxy:true))
      (tier ~proxy:false)
  in
  frequency
    [ (1, string); (2, string_size ~gen:alphabet (int_range 0 40)); (6, cascade) ]

let prop_tier_spec_parser =
  QCheck2.Test.make ~name:"tier spec parser: specs or Invalid_argument"
    ~count:1000 ~print:(Printf.sprintf "%S") gen_tier_spec (fun input ->
      match Probe_tier.of_string input with
      | exception Invalid_argument _ -> true
      | specs ->
          Probe_tier.validate specs;
          let registry = Metrics.create () in
          Array.iter
            (fun (spec : Probe_tier.spec) ->
              List.iter
                (fun key -> ignore (Metrics.counter registry (key spec.name)))
                Obs.Keys.
                  [ tier_probes; tier_batches; tier_shrinks; tier_failovers;
                    tier_retried ])
            specs;
          true)

(* --- satellite (a): shrink soundness --------------------------------- *)

(* A proxy answer is only usable if it is a sound imprecise model of
   the same precise object: the narrowed interval must be a subset of
   the original and still contain the ground truth, and iterating
   shrinks must preserve both. *)
let prop_interval_shrink_sound =
  QCheck2.Test.make ~name:"interval shrink: subset containing the truth"
    ~count:100
    QCheck2.Gen.(
      triple (int_range 1 10_000) (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (seed, power, power') ->
      let data =
        Interval_data.uniform_intervals (Rng.create seed) ~n:40
          ~value_range:(Interval.make 0.0 100.0) ~max_width:30.0
      in
      Array.for_all
        (fun (r : Interval_data.record) ->
          let s = Interval_data.shrink ~power r in
          let s' = Interval_data.shrink ~power:power' s in
          let sup = Uncertain.support r.Interval_data.belief
          and sup_s = Uncertain.support s.Interval_data.belief
          and sup_s' = Uncertain.support s'.Interval_data.belief in
          s.Interval_data.truth = r.Interval_data.truth
          && s.Interval_data.id = r.Interval_data.id
          && Interval.subset sup_s sup
          && Interval.contains sup_s s.Interval_data.truth
          && Interval.subset sup_s' sup_s
          && Interval.contains sup_s' s'.Interval_data.truth
          && Uncertain.laxity s.Interval_data.belief
             <= Uncertain.laxity r.Interval_data.belief +. 1e-9
          && (power < 1.0 || Interval.is_point sup_s))
        data)

(* The synthetic workload has no explicit interval, so its shrink must
   preserve the abstract soundness contract the operator relies on:
   laxity never grows, the verdict never weakens (YES stays YES, NO
   stays NO), success stays a probability and moves toward the
   pre-drawn ground truth, and full power degenerates to the probe. *)
let prop_synthetic_shrink_sound =
  QCheck2.Test.make ~name:"synthetic shrink: laxity contracts, verdict holds"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.0 1.0))
    (fun (seed, power) ->
      let data =
        Synthetic.generate (Rng.create seed) (Synthetic.config ~total:120 ())
      in
      let classify = Synthetic.instance.Operator.classify
      and laxity = Synthetic.instance.Operator.laxity in
      Array.for_all
        (fun (o : Synthetic.obj) ->
          let s = Synthetic.shrink ~power o in
          let verdict_held =
            match classify o with
            | Tvl.Maybe ->
                (* may become definite, but only at the ground truth *)
                classify s = Tvl.Maybe || classify s = Tvl.of_bool o.Synthetic.probe_yes
            | v -> classify s = v
          in
          verdict_held
          && laxity s <= laxity o +. 1e-9
          && s.Synthetic.success >= 0.0
          && s.Synthetic.success <= 1.0
          && (if o.Synthetic.probe_yes then
                s.Synthetic.success >= o.Synthetic.success -. 1e-9
              else s.Synthetic.success <= o.Synthetic.success +. 1e-9)
          && (power < 1.0 || s.Synthetic.resolved))
        data)

(* --- satellite (b): guarantees survive every cascade ------------------ *)

let synthetic_cascade ?obs ?faults ?start ~specs () =
  let cascade, _sources =
    Tiered.of_functions ?obs ?faults ~specs
      ~narrow:(fun ~power o -> Synthetic.shrink ~power o)
      ~resolve:Synthetic.probe ()
  in
  match start with
  | None -> cascade
  | Some start -> Cascade.create ~start ~specs (Cascade.drivers cascade)

(* Whatever the proxy's power and pricing, the plan's reported
   guarantees must stay sound lower bounds on the achieved quality, the
   requirements must be met, and the per-tier meter must reconcile
   with the qaq.probe.tier.* counters. *)
let prop_guarantees_survive_cascade =
  QCheck2.Test.make ~name:"achieved quality meets the plan on every seed"
    ~count:10
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.0 1.0))
    (fun (seed, power) ->
      let data =
        Synthetic.generate (Rng.create seed) (Synthetic.config ~total:600 ())
      in
      let obs = Obs.create () in
      let cascade =
        synthetic_cascade ~obs ~specs:(specs2 ~power ()) ()
      in
      let source = Scan_pipeline.rows ~instance:Synthetic.instance data in
      let earlier = Obs.snapshot obs in
      let result =
        Engine.run ~rng:(Rng.create (seed + 1)) ~max_laxity:100.0 ~obs
          ~instance:Synthetic.instance ~cascade ~requirements source
      in
      let profile =
        Profile.of_run ~oracle:Synthetic.in_exact ~earlier obs source result
      in
      let g = result.Engine.report.Operator.guarantees in
      match profile.Profile.audit.Profile.achieved with
      | None -> false
      | Some a ->
          Quality.meets g requirements
          && g.Quality.precision <= a.Profile.achieved_precision +. 1e-9
          && g.Quality.recall <= a.Profile.achieved_recall +. 1e-9
          && profile.Profile.reconcile_error = None)

(* --- satellite (c): the oracle-only cascade is the driver path ------- *)

(* A plain driver is the one-tier cascade [Cascade.of_driver].  These
   fingerprints were recorded from the direct-driver path before it was
   folded into the cascade: answer-id digest, whole-run counts,
   guarantees, normalized cost and degradation summary, with every float
   as its IEEE-754 bit pattern.  Both entry points — a plain [~probe] and
   an explicit [Cascade.of_driver] — must reproduce them bit for bit, on
   both layouts, for B in {1, 4} and domains in {1, 2}, and under a
   finite budget, a Probe_source fault plan and a fractional cost
   model. *)

let pin_requirements =
  Quality.requirements ~precision:0.85 ~recall:0.7 ~laxity:8.0

let pin_pred = Predicate.between 30.0 60.0

let pin_data =
  lazy
    (Interval_data.uniform_intervals (Rng.create 41) ~n:3000
       ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0)

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let guarantee_bits (g : Quality.guarantees) =
  Printf.sprintf "%s,%s,%s" (bits g.Quality.precision) (bits g.Quality.recall)
    (bits g.Quality.max_laxity)

let fingerprint (r : Interval_data.record Engine.result) =
  let ids = Buffer.create 4096 in
  List.iter
    (fun (e : Interval_data.record Operator.emitted) ->
      Buffer.add_string ids
        (Printf.sprintf "%d%c;" e.Operator.obj.Interval_data.id
           (if e.Operator.precise then 'p' else 'i')))
    r.Engine.report.Operator.answer;
  let c = r.Engine.counts and d = r.Engine.degradation in
  Printf.sprintf
    "answer=%s counts=%d/%d/%d/%d/%d g=%s cost=%s deg=%d/%d/%d/%d/%d/%s/%s/%b%s"
    (Digest.to_hex (Digest.string (Buffer.contents ids)))
    c.Cost_meter.reads c.probes c.batches c.writes_imprecise c.writes_precise
    (guarantee_bits r.Engine.report.Operator.guarantees)
    (bits r.Engine.normalized_cost)
    d.Engine.failed_probes d.failed_attempts d.degraded_forwards
    d.degraded_ignores d.forced_actions (bits d.wasted_cost)
    (match d.guarantees_before with None -> "-" | Some g -> guarantee_bits g)
    d.requirements_met
    (match r.Engine.budget with
    | None -> ""
    | Some b ->
        Printf.sprintf " budget=%s/%b/%b" (bits b.Engine.spent)
          b.Engine.budget_limited b.Engine.stopped_early)

let fractional_cost =
  Cost_model.make ~c_r:1.1 ~c_p:93.7 ~c_wi:0.9 ~c_wp:1.3 ~c_b:2.375 ()

let pinned_run ~via_cascade ?(cost = Cost_model.paper) ?budget
    ?(faults = false) ?(columnar = false) ~batch ~domains () =
  let data = Lazy.force pin_data in
  let probe =
    if faults then
      let plan =
        Fault_plan.make ~seed:77 ~transient_rate:0.05 ~permanent_rate:0.1 ()
      in
      Probe_source.driver ~batch_size:batch
        (Probe_source.create ~max_retries:2 ~faults:plan Interval_data.probe)
    else Probe_driver.of_scalar ~batch_size:batch Interval_data.probe
  in
  let source =
    if columnar then
      Scan_pipeline.store ~of_row:Interval_data.of_row ~pred:pin_pred
        (Interval_data.to_store ~chunk_size:128 data)
    else Scan_pipeline.rows ~instance:(Interval_data.instance pin_pred) data
  in
  let probe, cascade =
    if via_cascade then (None, Some (Cascade.of_driver ~cost probe))
    else (Some probe, None)
  in
  fingerprint
    (Engine.run ~rng:(Rng.create 43) ~max_laxity:10.0 ~cost ?budget ~domains
       ~instance:(Interval_data.instance pin_pred) ?probe ?cascade
       ~requirements:pin_requirements source)

let pinned_legs =
  List.concat_map
    (fun columnar ->
      List.concat_map
        (fun batch ->
          List.map
            (fun domains ->
              ( Printf.sprintf "%s B=%d domains=%d"
                  (if columnar then "columnar" else "row")
                  batch domains,
                fun ~via_cascade ->
                  pinned_run ~via_cascade ~columnar ~batch ~domains () ))
            [ 1; 2 ])
        [ 1; 4 ])
    [ false; true ]
  @ [
      ( "budget",
        fun ~via_cascade ->
          pinned_run ~via_cascade ~budget:9000.0 ~batch:4 ~domains:1 () );
      ( "faults",
        fun ~via_cascade ->
          pinned_run ~via_cascade ~faults:true ~batch:4 ~domains:1 () );
      ( "fractional cost",
        fun ~via_cascade ->
          pinned_run ~via_cascade ~cost:fractional_cost ~faults:true ~batch:4
            ~domains:1 () );
    ]

let pinned =
  [
    ( "row B=1 domains=1",
      "answer=1e75b92e4e19269b3890ca9f36bbe129 counts=3022/68/68/692/52 \
       g=3feb70dc370dc371,3fe669190287725f,401ff4c3bd7f96e0 \
       cost=400c2d0e56041893 deg=0/0/0/0/0/0/-/true" );
    ( "row B=1 domains=2",
      "answer=1e75b92e4e19269b3890ca9f36bbe129 counts=3022/68/68/692/52 \
       g=3feb70dc370dc371,3fe669190287725f,401ff4c3bd7f96e0 \
       cost=400c2d0e56041893 deg=0/0/0/0/0/0/-/true" );
    ( "row B=4 domains=1",
      "answer=814ec88d557d607ae9385189e720465d counts=3020/70/18/691/54 \
       g=3feb7d6c3dda338b,3fe668314b9fa65f,401ff4c3bd7f96e0 \
       cost=400cb4e81b4e81b5 deg=0/0/0/0/0/0/-/true" );
    ( "row B=4 domains=2",
      "answer=814ec88d557d607ae9385189e720465d counts=3020/70/18/691/54 \
       g=3feb7d6c3dda338b,3fe668314b9fa65f,401ff4c3bd7f96e0 \
       cost=400cb4e81b4e81b5 deg=0/0/0/0/0/0/-/true" );
    ( "columnar B=1 domains=1",
      "answer=1e75b92e4e19269b3890ca9f36bbe129 counts=3022/68/68/692/52 \
       g=3feb70dc370dc371,3fe669190287725f,401ff4c3bd7f96e0 \
       cost=400c2d0e56041893 deg=0/0/0/0/0/0/-/true" );
    ( "columnar B=1 domains=2",
      "answer=1e75b92e4e19269b3890ca9f36bbe129 counts=3022/68/68/692/52 \
       g=3feb70dc370dc371,3fe669190287725f,401ff4c3bd7f96e0 \
       cost=400c2d0e56041893 deg=0/0/0/0/0/0/-/true" );
    ( "columnar B=4 domains=1",
      "answer=814ec88d557d607ae9385189e720465d counts=3020/70/18/691/54 \
       g=3feb7d6c3dda338b,3fe668314b9fa65f,401ff4c3bd7f96e0 \
       cost=400cb4e81b4e81b5 deg=0/0/0/0/0/0/-/true" );
    ( "columnar B=4 domains=2",
      "answer=814ec88d557d607ae9385189e720465d counts=3020/70/18/691/54 \
       g=3feb7d6c3dda338b,3fe668314b9fa65f,401ff4c3bd7f96e0 \
       cost=400cb4e81b4e81b5 deg=0/0/0/0/0/0/-/true" );
    ( "budget",
      "answer=9d97b7be73dc885eceffa1ca5e0ec9ad counts=2272/61/16/510/44 \
       g=3febb9c300ec9791,3fd5518b1a78731f,401ff4c3bd7f96e0 \
       cost=4007cd7b900aec34 deg=0/0/0/0/0/0/-/false \
       budget=40c16f0000000000/true/true" );
    ( "faults",
      "answer=96a27cf04e32d4297ae18f54af9c8354 counts=3021/71/20/690/53 \
       g=3feb85572bc1fb2d,3fe66bca1af286bd,401ff4c3bd7f96e0 \
       cost=400cf87d9c54a692 \
       deg=7/21/1/6/2/40a0680000000000/3feb6db6db6db6db,3f70b7e6ec259dc8,401b27ce73bcb388/true" );
    ( "fractional cost",
      "answer=96a27cf04e32d4297ae18f54af9c8354 counts=3021/71/20/690/53 \
       g=3feb85572bc1fb2d,3fe66bca1af286bd,401ff4c3bd7f96e0 \
       cost=400c918b66895a3f \
       deg=7/21/1/6/2/409ef0accccccccd/3feb6db6db6db6db,3f70b7e6ec259dc8,401b27ce73bcb388/true" );
  ]

let test_single_tier_golden () =
  List.iter
    (fun (leg, run) ->
      let expected = List.assoc leg pinned in
      Alcotest.(check string)
        (leg ^ " via ~probe") expected
        (run ~via_cascade:false);
      Alcotest.(check string)
        (leg ^ " via Cascade.of_driver") expected
        (run ~via_cascade:true))
    pinned_legs

(* --- escalation accounting ------------------------------------------- *)

(* A full-power proxy resolves everything it touches: the oracle is
   never probed.  A zero-power proxy narrows nothing: every probed
   object escalates, so the oracle resolves exactly the proxy's shrink
   count. *)
let escalation_run ~power =
  let data =
    Synthetic.generate (Rng.create 21) (Synthetic.config ~total:500 ())
  in
  (* A powerless proxy is priced out of the escalation strategy, so
     force entry at tier 0 — the invariant under test is the operator's
     escalation accounting, not the start-tier selection. *)
  let cascade = synthetic_cascade ~start:0 ~specs:(specs2 ~power ()) () in
  let result =
    Engine.run ~rng:(Rng.create 22) ~max_laxity:100.0
      ~instance:Synthetic.instance ~cascade ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  (result, Cascade.stats cascade)

let test_escalation_accounting () =
  let result, stats = escalation_run ~power:1.0 in
  checkb "full-power proxy did work" true (stats.(0).Cascade.st_shrinks > 0);
  checki "full-power proxy starves the oracle" 0 stats.(1).Cascade.st_probes;
  checkb "requirements still met" true
    (Quality.meets result.Engine.report.Operator.guarantees requirements);
  let result0, stats0 = escalation_run ~power:0.0 in
  checkb "powerless proxy did work" true (stats0.(0).Cascade.st_shrinks > 0);
  checki "every probed object escalates to the oracle"
    stats0.(0).Cascade.st_shrinks stats0.(1).Cascade.st_probes;
  checkb "requirements still met at power 0" true
    (Quality.meets result0.Engine.report.Operator.guarantees requirements)

(* A dead proxy must not take the answer down: every proxy probe fails
   over to the oracle, the run completes undegraded and the failovers
   are counted per tier. *)
let test_proxy_outage_fails_over () =
  let data =
    Synthetic.generate (Rng.create 31) (Synthetic.config ~total:500 ())
  in
  let specs = specs2 () in
  let proxy =
    Probe_source.create ~tier:"proxy" ~max_retries:0
      ~faults:(Fault_plan.make ~seed:32 ~permanent_rate:1.0 ())
      (Synthetic.shrink ~power:0.8)
  in
  let oracle = Probe_source.create ~tier:"oracle" Synthetic.probe in
  let cascade = dead_proxy_cascade ~specs [| proxy; oracle |] in
  let result =
    Engine.run ~rng:(Rng.create 33) ~max_laxity:100.0
      ~instance:Synthetic.instance ~cascade ~requirements
      (Scan_pipeline.rows ~instance:Synthetic.instance data)
  in
  let stats = Cascade.stats cascade in
  checkb "the proxy was down" true (stats.(0).Cascade.st_failures > 0);
  checki "no proxy answer got through" 0 stats.(0).Cascade.st_shrinks;
  checki "every proxy failure failed over" stats.(0).Cascade.st_failures
    stats.(0).Cascade.st_failovers;
  checki "the oracle absorbed the full load" stats.(0).Cascade.st_failures
    stats.(1).Cascade.st_probes;
  checkb "the answer is not degraded" true
    (result.Engine.degradation.Engine.failed_probes = 0);
  checkb "requirements met through the outage" true
    (Quality.meets result.Engine.report.Operator.guarantees requirements)

(* --- metered economics: a proxy sweep against the oracle ------------- *)

(* A cheap shrink proxy (c_p = 0.05, B = 32) in front of the oracle
   (c_p = 1, B = 8), swept over proxy power 0, 0.5 and 0.9, plus a leg
   with the proxy permanently down.  Recall 1.0 forces a full scan and
   the fixed plan probes every YES and MAYBE candidate, so every leg
   returns the same answer ids whatever tier settled each object.  Every
   leg meets its guarantees with a reconciled, passing audit, and the
   90%-effective proxy cuts the oracle-only metered cost at least 1.5x. *)
let test_proxy_sweep_economics () =
  let pred = Predicate.ge 60.0 in
  let data =
    Interval_data.uniform_intervals (Rng.create 808) ~n:4000
      ~value_range:(Interval.make 0.0 100.0) ~max_width:30.0
  in
  let requirements =
    Quality.requirements ~precision:0.9 ~recall:1.0 ~laxity:25.0
  in
  (* s3 = s5 = 0 probes every MAYBE; p_py = 1 probes every wide YES. *)
  let probe_everything = Policy.params ~s3:0.0 ~s5:0.0 ~p_py:1.0 ~p_fm:0.0 in
  (* Reads priced near zero: the gate is about probe economics. *)
  let cost =
    Cost_model.make ~c_r:0.01 ~c_p:1.0 ~c_b:5.0 ~c_wi:0.1 ~c_wp:0.1 ()
  in
  let specs ~power = specs2 ~power ~proxy_cp:0.05 ~proxy_cb:0.5 () in
  let source = Scan_pipeline.rows ~instance:(Interval_data.instance pred) data in
  let execute ~obs ?probe ?cascade () =
    let earlier = Obs.snapshot obs in
    let result =
      Engine.run ~rng:(Rng.create 809) ~max_laxity:30.0
        ~planning:(Engine.Fixed probe_everything) ~cost ~obs
        ~instance:(Interval_data.instance pred) ?probe ?cascade ~requirements
        source
    in
    ( result,
      Profile.of_run ~oracle:(Interval_data.in_exact pred) ~earlier obs source
        result )
  in
  let oracle_only () =
    let obs = Obs.create () in
    let source = Probe_source.create ~obs Interval_data.probe in
    execute ~obs ~probe:(Probe_source.driver ~obs ~batch_size:8 source) ()
  in
  let tiered power =
    let obs = Obs.create () in
    let cascade, _sources =
      Tiered.of_functions ~obs ~specs:(specs ~power)
        ~narrow:Interval_data.shrink ~resolve:Interval_data.probe ()
    in
    execute ~obs ~cascade ()
  in
  let proxy_outage power =
    let obs = Obs.create () in
    let sources =
      [|
        Probe_source.create ~obs ~tier:"proxy" ~max_retries:0
          ~faults:(Fault_plan.make ~seed:811 ~permanent_rate:1.0 ())
          (fun o -> Interval_data.shrink ~power o);
        Probe_source.create ~obs ~tier:"oracle" Interval_data.probe;
      |]
    in
    let cascade = dead_proxy_cascade ~obs ~specs:(specs ~power) sources in
    execute ~obs ~cascade ()
  in
  let ids (r : Interval_data.record Engine.result) =
    List.sort compare
      (List.map
         (fun (e : Interval_data.record Operator.emitted) ->
           e.Operator.obj.Interval_data.id)
         r.Engine.report.Operator.answer)
  in
  let ((oracle, _) as oracle_run) = oracle_only () in
  let ((proxy90, _) as proxy90_run) = tiered 0.9 in
  List.iter
    (fun (label, (r, profile)) ->
      checkb (label ^ ": same answer ids as oracle-only") true
        (ids r = ids oracle);
      checkb (label ^ ": guarantees met") true
        (Quality.meets r.Engine.report.Operator.guarantees requirements);
      checkb (label ^ ": profile reconciles and passes its audit") true
        (Profile.passed profile))
    [
      ("oracle-only", oracle_run);
      ("proxy-0", tiered 0.0);
      ("proxy-50", tiered 0.5);
      ("proxy-90", proxy90_run);
      ("proxy-outage", proxy_outage 0.9);
    ];
  let ratio =
    oracle.Engine.normalized_cost /. proxy90.Engine.normalized_cost
  in
  checkb
    (Printf.sprintf "oracle-only / proxy-90 cost ratio %.2f >= 1.5" ratio)
    true (ratio >= 1.5)

(* --- probe-ahead: a run that keeps batches in flight is the
   synchronous run ------------------------------------------------------ *)

(* A deterministic ticketed backend: every batch answers [Later], and
   the driver lets the operator hold [w] tickets, so a ticket completes
   at most [w] of its tier's dispatches late — sooner whenever the wait
   rule needs its outcomes.  [lags] records, per await, how many
   batches were sent after the awaited one. *)
let ticketed ~w ~batch_size ~lags f =
  let sent = ref 0 in
  Probe_driver.create ~batch_size ~ahead:w (fun objs ->
      incr sent;
      let mine = !sent in
      Probe_driver.Later
        (fun () ->
          lags := (!sent - mine) :: !lags;
          f objs))

type ahead_case = {
  seed : int;
  total : int;
  f_y : float;
  f_m : float;
  batch : int;
  proxy_batch : int;
  w : int;
  two_tier : bool;
  power : float;
  p : float;
  r : float;
  l : float;
  params : float * float * float * float;
}

let ahead_case_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 100_000 and* total = int_range 20 400
  and* f_y = float_range 0.0 0.5 and* f_m = float_range 0.0 0.5
  and* batch = int_range 2 16 and* proxy_batch = int_range 2 16
  and* w = int_range 1 16 and* two_tier = bool
  and* power = float_range 0.0 1.0 and* p = float_range 0.5 1.0
  and* r = float_range 0.3 1.0 and* l = float_range 5.0 100.0
  and* s3 = float_range 0.0 1.0 and* s5 = float_range 0.0 1.0
  and* p_py = float_range 0.0 1.0 and* p_fm = float_range 0.0 1.0 in
  return
    { seed; total; f_y; f_m; batch; proxy_batch; w; two_tier; power; p; r;
      l; params = (s3, s5, p_py, p_fm) }

let show_ahead_case c =
  let s3, s5, p_py, p_fm = c.params in
  Printf.sprintf
    "seed=%d total=%d f_y=%g f_m=%g B=%d proxy_B=%d W=%d tiers=%d power=%g \
     p=%g r=%g l=%g params=(%g,%g,%g,%g)"
    c.seed c.total c.f_y c.f_m c.batch c.proxy_batch c.w
    (if c.two_tier then 2 else 1)
    c.power c.p c.r c.l s3 s5 p_py p_fm

(* One run of the case, ticketed ([Some w]) or synchronous ([None]),
   with its per-object trace events (reads, decisions, resolutions and
   batches; timed phases dropped) sorted: probe-ahead reorders them.
   [guard_waits] receives the run's [qaq.probe.ahead_waits.guard]. *)
let ahead_run ?lags ?guard_waits c ~w =
  let data =
    Synthetic.generate (Rng.create c.seed)
      (Synthetic.config ~total:c.total ~f_y:(Float.min c.f_y (1.0 -. c.f_m))
         ~f_m:c.f_m ())
  in
  let lags = match lags with Some l -> l | None -> ref [] in
  let driver ~batch_size f =
    match w with
    | Some w -> ticketed ~w ~batch_size ~lags f
    | None -> Probe_driver.create_outcomes ~batch_size f
  in
  let oracle =
    driver ~batch_size:c.batch
      (Array.map (fun o -> Probe_driver.Resolved (Synthetic.probe o)))
  in
  let cascade =
    if c.two_tier then
      let specs = specs2 ~power:c.power ~proxy_batch:c.proxy_batch () in
      let specs =
        [| specs.(0); { (specs.(1)) with Probe_tier.batch = c.batch } |]
      in
      Cascade.create ~start:0 ~specs
        [|
          driver ~batch_size:c.proxy_batch
            (Array.map (fun o ->
                 Probe_driver.Shrunk (Synthetic.shrink ~power:c.power o)));
          oracle;
        |]
    else Cascade.of_driver oracle
  in
  let sink, events = Trace.collector () in
  let s3, s5, p_py, p_fm = c.params in
  let obs = Obs.create ~trace:sink () in
  let report =
    Operator.run ~rng:(Rng.create (c.seed + 1)) ~obs
      ~instance:Synthetic.instance ~cascade
      ~policy:(Policy.qaq (Policy.params ~s3 ~s5 ~p_py ~p_fm))
      ~requirements:(Quality.requirements ~precision:c.p ~recall:c.r ~laxity:c.l)
      (Operator.source_of_array data)
  in
  Option.iter
    (fun r ->
      r := Metrics.count_of (Obs.snapshot obs) Obs.Keys.ahead_waits_guard)
    guard_waits;
  let events =
    List.sort compare
      (List.filter (function Trace.Phase _ -> false | _ -> true) (events ()))
  in
  (report, events)

let same_run (a, ea) (b, eb) =
  let answer (r : Synthetic.obj Operator.report) =
    List.map (fun (e : _ Operator.emitted) -> (e.obj.Synthetic.id, e.precise)) r.answer
  in
  answer a = answer b
  && a.Operator.counts = b.Operator.counts
  && a.guarantees = b.guarantees
  && a.yes_seen = b.yes_seen
  && a.maybe_ignored = b.maybe_ignored
  && a.answer_size = b.answer_size
  && a.exhausted = b.exhausted
  && a.degraded = b.degraded
  && ea = eb

let prop_probe_ahead_is_synchronous =
  QCheck2.Test.make ~name:"probe-ahead run equals the synchronous run"
    ~count:2_000 ~long_factor:10 ~print:show_ahead_case ahead_case_gen
    (fun c ->
      same_run (ahead_run c ~w:(Some c.w)) (ahead_run c ~w:None))

(* The property above must exercise the lag: one fixed case keeps
   batches in flight across later dispatches and still answers as the
   synchronous run does. *)
let test_probe_ahead_lags () =
  let c =
    { seed = 7; total = 2000; f_y = 0.2; f_m = 0.2; batch = 8;
      proxy_batch = 32; w = 16; two_tier = true; power = 0.8; p = 0.9;
      r = 0.6; l = 50.0; params = (0.5, 0.5, 0.5, 0.5) }
  in
  List.iter
    (fun two_tier ->
      let c = { c with two_tier } in
      let lags = ref [] in
      let ahead = ahead_run ~lags c ~w:(Some c.w) in
      checkb "the same run" true (same_run ahead (ahead_run c ~w:None));
      checkb "tickets complete after later dispatches" true
        (List.exists (fun l -> l > 0) !lags))
    [ false; true ]

(* The wait rule's lower end: a YES object in flight at the final tier
   is a known YES, since its precise version must satisfy λ.  With no
   MAYBE objects every probed object is one, so at one tier the outcomes
   this run lacks are all known and no decision waits — even a YES above
   the laxity bound, whose preference [Ignore; Probe] (p_py = 0) turns
   on whether rule (c) holds. *)
let test_known_yes_never_waits () =
  let c =
    { seed = 7; total = 2000; f_y = 0.4; f_m = 0.0; batch = 8;
      proxy_batch = 8; w = 16; two_tier = false; power = 0.0; p = 0.9;
      r = 0.9; l = 20.0; params = (0.5, 0.5, 0.0, 0.5) }
  in
  let guard_waits = ref (-1) in
  let ahead = ahead_run ~guard_waits c ~w:(Some c.w) in
  checkb "the same run" true (same_run ahead (ahead_run c ~w:None));
  checki "no decision waits" 0 !guard_waits

(* A proxy that narrows an object to a definite YES vouches for its
   precise version, so an oracle answer of NO for it is a broken
   backend, as for a scanned YES: probe-ahead counts such an object as
   a known YES once it is in flight at the oracle. *)
let test_shrunk_yes_resolves_yes () =
  let instance : (Tvl.t * float) Operator.instance =
    { classify = fst; laxity = snd; success = (fun _ -> 0.9) }
  in
  let tier batch_size f =
    Probe_driver.create_outcomes ~batch_size (Array.map f)
  in
  let cascade =
    Cascade.create ~start:0 ~specs:(specs2 ~proxy_batch:1 ())
      [| tier 1 (fun _ -> Probe_driver.Shrunk (Tvl.Yes, 40.0));
         tier 8 (fun _ -> Probe_driver.Resolved (Tvl.No, 0.0)) |]
  in
  match
    Operator.run ~rng:(Rng.create 1) ~instance ~cascade
      ~policy:(Policy.qaq (Policy.params ~s3:0.5 ~s5:0.5 ~p_py:0.5 ~p_fm:0.5))
      ~requirements:(Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:10.0)
      (Operator.source_of_array [| (Tvl.Maybe, 50.0) |])
  with
  | _ -> Alcotest.fail "an oracle NO for a shrunk YES was accepted"
  | exception Operator.Inconsistent_probe -> ()

let suite =
  [
    ("tier selection prices escalation", `Quick, test_tier_selection);
    ("tier spec grammar", `Quick, test_tier_grammar);
    ("single-tier cascade is the direct driver", `Slow,
     test_single_tier_golden);
    ("escalation accounting", `Quick, test_escalation_accounting);
    ("proxy outage fails over to the oracle", `Quick,
     test_proxy_outage_fails_over);
    ("proxy sweep: same answers, 1.5x cheaper at power 0.9", `Quick,
     test_proxy_sweep_economics);
    QCheck_alcotest.to_alcotest prop_interval_shrink_sound;
    QCheck_alcotest.to_alcotest prop_synthetic_shrink_sound;
    QCheck_alcotest.to_alcotest prop_guarantees_survive_cascade;
    QCheck_alcotest.to_alcotest prop_tier_spec_parser;
    ("probe-ahead keeps batches in flight", `Quick, test_probe_ahead_lags);
    ("probe-ahead: a final-tier YES is known", `Quick,
     test_known_yes_never_waits);
    ("a shrunk YES must resolve YES", `Quick, test_shrunk_yes_resolves_yes);
    QCheck_alcotest.to_alcotest prop_probe_ahead_is_synchronous;
  ]
