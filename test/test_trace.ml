(* Tests for the progressive-guarantee view (Operator.trace) and the
   drifting workload it pairs with. *)

(* A region-model spec under the uniform density over [0,1] x [0,L]. *)
let uniform_spec ~f_y ~f_m ~max_laxity =
  Region_model.spec ~f_y ~f_m ~max_laxity ~density:(Density.uniform ~max_laxity)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let requirements = Quality.requirements ~precision:0.9 ~recall:0.6 ~laxity:50.0

(* A workload whose composition drifts linearly along the scan: position
   0 draws labels with the config's [(f_y, f_m)], the final position with
   [(f_y_end, f_m_end)], one {!Synthetic.generate} of one object each.  A
   pre-query sample sees the average mix, so a one-shot plan is
   systematically wrong for the tail. *)
let generate_drifting rng (cfg : Synthetic.config) ~f_y_end ~f_m_end =
  (* The end mix must be a valid pair of fractions. *)
  ignore (Synthetic.config ~f_y:f_y_end ~f_m:f_m_end ());
  let n = Stdlib.max 1 (cfg.total - 1) in
  Array.init cfg.total (fun id ->
      let t = float_of_int id /. float_of_int n in
      let mix a b = a +. (t *. (b -. a)) in
      let local =
        { cfg with total = 1; f_y = mix cfg.f_y f_y_end; f_m = mix cfg.f_m f_m_end }
      in
      let o = (Synthetic.generate rng local).(0) in
      Synthetic.make ~id ~label:o.label ~laxity:o.laxity ~success:o.success
        ~probe_yes:o.probe_yes ~resolved:o.resolved)

let run_trace ?(every = 1) data =
  Operator.trace ~rng:(Rng.create 3) ~every ~instance:Synthetic.instance
    ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
    ~policy:Policy.stingy
    ~requirements
    (Operator.source_of_array data)

let test_trace_covers_every_read () =
  let data =
    Synthetic.generate (Rng.create 1) (Synthetic.config ~total:500 ())
  in
  let report, samples = run_trace data in
  checki "one sample per read" report.counts.reads (List.length samples);
  (* Read counts are 1..reads in order. *)
  List.iteri
    (fun i (reads, _) -> checki "sequential" (i + 1) reads)
    samples

let test_trace_every () =
  let data =
    Synthetic.generate (Rng.create 2) (Synthetic.config ~total:500 ())
  in
  let report, samples = run_trace ~every:100 data in
  checkb "subsampled" true
    (List.length samples <= (report.counts.reads / 100) + 1);
  List.iter (fun (reads, _) -> checki "multiples" 0 (reads mod 100)) samples;
  Alcotest.check_raises "every < 1"
    (Invalid_argument "Operator.trace: every < 1") (fun () ->
      ignore (run_trace ~every:0 data))

let test_trajectory_invariants () =
  let data =
    Synthetic.generate (Rng.create 4) (Synthetic.config ~total:2000 ())
  in
  let report, samples = run_trace data in
  (* Under enforcement: precision and laxity within bounds at EVERY
     checkpoint; recall non-decreasing and ending at the requirement. *)
  let last_recall = ref 0.0 in
  List.iter
    (fun ((_, g) : int * Quality.guarantees) ->
      checkb "precision always ok" true (g.precision >= requirements.precision -. 1e-12);
      checkb "laxity always ok" true (g.max_laxity <= requirements.laxity +. 1e-12);
      checkb "recall monotone" true (g.recall >= !last_recall -. 1e-12);
      last_recall := g.recall)
    samples;
  checkb "converged" true (report.guarantees.recall >= requirements.recall)

let test_drifting_generator () =
  let cfg = Synthetic.config ~total:40000 ~f_y:0.1 ~f_m:0.1 () in
  let data =
    generate_drifting (Rng.create 5) cfg ~f_y_end:0.3 ~f_m_end:0.5
  in
  let frac label lo hi =
    let count = ref 0 in
    for i = lo to hi - 1 do
      if Tvl.equal data.(i).Synthetic.label label then incr count
    done;
    float_of_int !count /. float_of_int (hi - lo)
  in
  (* First tenth is near the start mix, last tenth near the end mix. *)
  checkb "head f_m low" true (Float.abs (frac Tvl.Maybe 0 4000 -. 0.12) < 0.03);
  checkb "tail f_m high" true (Float.abs (frac Tvl.Maybe 36000 40000 -. 0.48) < 0.03);
  checkb "head f_y low" true (Float.abs (frac Tvl.Yes 0 4000 -. 0.11) < 0.03);
  checkb "tail f_y high" true (Float.abs (frac Tvl.Yes 36000 40000 -. 0.29) < 0.03);
  Alcotest.check_raises "invalid end"
    (Invalid_argument "Synthetic.config: invalid fractions")
    (fun () ->
      ignore (generate_drifting (Rng.create 1) cfg ~f_y_end:0.8 ~f_m_end:0.5))

let test_adaptive_on_drift () =
  (* On a drifting workload, the adaptive policy must stay sound and not
     lose to the static plan solved from a (correct-on-average) prior. *)
  let cfg = Synthetic.config ~total:10000 ~f_y:0.05 ~f_m:0.05 () in
  let requirements = Quality.requirements ~precision:0.9 ~recall:0.5 ~laxity:50.0 in
  let total_static = ref 0.0 and total_adaptive = ref 0.0 in
  List.iter
    (fun seed ->
      let data =
        generate_drifting (Rng.create seed) cfg ~f_y_end:0.35
          ~f_m_end:0.35
      in
      let rng = Rng.create (seed * 7) in
      let average_prior =
        let spec = uniform_spec ~f_y:0.2 ~f_m:0.2 ~max_laxity:100.0 in
        (Solver.solve (Solver.problem ~total:10000 ~spec ~requirements ())).params
      in
      let static =
        Operator.run ~rng ~instance:Synthetic.instance
          ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
          ~policy:(Policy.qaq average_prior) ~requirements
          (Operator.source_of_array data)
      in
      let adaptive_state =
        Adaptive.create ~rng:(Rng.split rng) ~total:10000 ~max_laxity:100.0
          ~requirements ~replan_every:1000 ~max_replans:8 ~initial:average_prior ()
      in
      let adaptive =
        Operator.run ~rng ~instance:Synthetic.instance
          ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
          ~policy:(Adaptive.policy adaptive_state) ~requirements
          (Operator.source_of_array data)
      in
      checkb "static sound" true (Quality.meets static.guarantees requirements);
      checkb "adaptive sound" true (Quality.meets adaptive.guarantees requirements);
      total_static := !total_static +. Operator.cost Cost_model.paper static;
      total_adaptive := !total_adaptive +. Operator.cost Cost_model.paper adaptive)
    [ 31; 32; 33 ];
  checkb "adaptive does not lose on drift" true
    (!total_adaptive <= !total_static *. 1.05)

let suite =
  [
    ("trace covers every read", `Quick, test_trace_covers_every_read);
    ("trace subsampling", `Quick, test_trace_every);
    ("trajectory invariants", `Quick, test_trajectory_invariants);
    ("drifting generator", `Quick, test_drifting_generator);
    ("adaptive on drifting workload", `Slow, test_adaptive_on_drift);
  ]
