(* qaq — command-line front end to the QaQ framework.

   Subcommands:
     solve    solve the §4.2.2 optimization problem for given inputs
     trial    run the QaQ operator on a synthetic workload (or a saved one)
     dataset  generate a workload (synthetic or intervals) and save it as CSV
     convert  convert an interval-record CSV to a columnar chunk file (QCOL)
     query    run a quality-aware selection over an interval dataset
     watch    live per-tenant SLO dashboard for a running qaq-server
     tables   regenerate the paper's tables (§5.1 + §5.2)
     regions  print the decision-region diagram of Figs. 2-3 *)

open Cmdliner
open Cli_flags

(* ---- shared options ---------------------------------------------- *)

let seed =
  let doc = "PRNG seed (runs are deterministic per seed)." in
  Arg.(value & opt int 2004 & info [ "seed" ] ~doc)

let total =
  let doc = "Input size |T|." in
  Arg.(value & opt positive_int 10000 & info [ "total" ] ~doc)

let max_laxity =
  let doc = "Maximum input laxity L." in
  Arg.(value & opt positive_float 100.0 & info [ "max-laxity" ] ~doc)

let p_q =
  let doc = "Precision requirement p_q." in
  Arg.(value & opt unit_interval 0.9 & info [ "precision"; "p" ] ~doc)

let r_q =
  let doc = "Recall requirement r_q." in
  Arg.(value & opt unit_interval 0.5 & info [ "recall"; "r" ] ~doc)

let l_q =
  let doc = "Laxity requirement l_q^max." in
  Arg.(value & opt non_negative_float 50.0 & info [ "laxity"; "l" ] ~doc)

let batch =
  let doc =
    "Probe batch size B: probes are dispatched B at a time and priced at \
     the amortized c_p + c_b/B."
  in
  Arg.(value & opt positive_int 1 & info [ "batch"; "B" ] ~doc)

let c_b =
  let doc = "Per-batch probe setup cost c_b (paper model: 0)." in
  Arg.(value & opt non_negative_float 0.0 & info [ "cb" ] ~doc)

let domains =
  let doc =
    "Lanes for the scan pipeline (default: the QAQ_DOMAINS environment \
     variable, else 1; at most one lane per core runs at once).  \
     Classification fans out across lanes while every decision stays \
     sequential, so results are identical for any value."
  in
  Arg.(value & opt (some positive_int) None & info [ "domains" ] ~docv:"N" ~doc)

let budget_opt =
  let doc =
    "Cap the run's total metered spend at $(docv) cost units (planning \
     included).  The engine then plans for the best reachable recall \
     within the budget (the dual problem), re-solves mid-scan against \
     whatever remains on the meter, and stops the scan before the spend \
     can exceed the cap.  Precision stays a hard constraint; the budget \
     summary is printed after the run."
  in
  Arg.(value & opt (some cap) None & info [ "budget" ] ~docv:"COST" ~doc)

let deadline_ms_opt =
  let doc =
    "Stop the scan after $(docv) milliseconds of wall clock.  Unlike \
     --budget this is inherently non-deterministic; prefer --budget \
     wherever reproducibility matters.  Composes with --budget."
  in
  Arg.(
    value & opt (some cap) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let deadline_of_ms = Option.map (fun ms -> ms /. 1000.0)

let print_budget_summary result =
  match result.Engine.budget with
  | None -> ()
  | Some b ->
      let money v =
        if Float.is_finite v then Printf.sprintf "%.1f" v else "inf"
      in
      Format.printf
        "budget: allotted %s, spent %.1f, remaining %s; target recall \
         %.3f%s; %d budget replan(s)%s@."
        (money b.Engine.allotted) b.Engine.spent
        (money b.Engine.remaining)
        b.Engine.target_recall
        (if b.Engine.budget_limited then " (budget-limited)" else "")
        b.Engine.budget_replans
        (if b.Engine.stopped_early then "; scan stopped early" else "")

(* Dataset files cross the CLI boundary: one that does not parse is a
   one-line error, never an uncaught exception. *)
let load read path =
  let fail reason =
    Format.eprintf "%s: %s@." path reason;
    exit 2
  in
  match read path with
  | data -> data
  | exception Failure reason -> fail reason
  | exception Csv.Parse_error { offset; reason } ->
      fail (Printf.sprintf "%s at byte %d" reason offset)
  | exception Dataset_io.Corrupt_columnar { reason; _ } -> fail reason

(* Every file the CLI writes goes through [save]: an output path that
   cannot be written is one [<path>: <reason>] line and exit 2, as an
   unreadable input is for [load]. *)
let save path write =
  let fail msg =
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix)
          (String.length msg - String.length prefix)
      else msg
    in
    Format.eprintf "%s: %s@." path reason;
    exit 2
  in
  match write path with
  | () -> ()
  | exception (Sys_error msg | Fun.Finally_raised (Sys_error msg)) -> fail msg

let save_text path text =
  save path (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text))

let cost_model c_b =
  let paper = Cost_model.paper in
  Cost_model.make ~c_r:paper.Cost_model.c_r ~c_p:paper.Cost_model.c_p
    ~c_wi:paper.Cost_model.c_wi ~c_wp:paper.Cost_model.c_wp ~c_b ()

let setting total f_y f_m max_laxity p_q r_q l_q : Exp_config.setting =
  { label = "cli"; total; f_y; f_m; max_laxity; p_q; r_q; l_q }

(* ---- solve -------------------------------------------------------- *)

let solve_run total (f_y, f_m) max_laxity p_q r_q l_q batch c_b =
  let s = setting total f_y f_m max_laxity p_q r_q l_q in
  let cost = cost_model c_b in
  let solution = Exp_runner.solve_setting ~cost ~batch s in
  Format.printf "problem: |T|=%d f_y=%g f_m=%g L=%g B=%d %a  %a@.@." s.total
    s.f_y s.f_m s.max_laxity batch Cost_model.pp cost Quality.pp_requirements
    (Exp_config.requirements s);
  print_string
    (Solver.explain solution.problem (Lazy.force solution.evaluation))

let solve_cmd =
  let doc = "Solve the optimization problem of paper section 4.2.2." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const solve_run $ total $ fractions $ max_laxity $ p_q $ r_q $ l_q
      $ batch $ c_b)

(* ---- trial -------------------------------------------------------- *)

let policy_conv =
  let parse = function
    | "qaq" -> Ok Exp_runner.Qaq
    | "stingy" -> Ok Exp_runner.Stingy
    | "greedy" -> Ok Exp_runner.Greedy
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  let print ppf k = Format.pp_print_string ppf (Exp_runner.policy_name k) in
  Arg.conv (parse, print)

let policy =
  let doc = "Policy: qaq, stingy or greedy." in
  Arg.(value & opt policy_conv Exp_runner.Qaq & info [ "policy" ] ~doc)

let repetitions =
  let doc = "Independent datasets to average over." in
  Arg.(value & opt positive_int 5 & info [ "repetitions" ] ~doc)

let trial_repetitions =
  let doc =
    "Independent generated datasets to average over (default 5).  Only the \
     generated-series trial repeats: giving $(opt) together with --data or \
     a single-run engine flag (--profile, --chrome-trace, --fault-rate, \
     --tiers, --budget, --deadline-ms) is a usage error."
  in
  Arg.(value & opt (some positive_int) None & info [ "repetitions" ] ~doc)

let data_file =
  let doc =
    "Run once on a workload previously saved with the dataset command \
     instead of generating one (cannot be combined with --repetitions)."
  in
  Arg.(value & opt (some file) None & info [ "data" ] ~doc)

let trace_flag =
  let doc =
    "Print one structured trace line per run event (reads, decisions, probe \
     batches, early termination) to standard error."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let metrics_file =
  let doc =
    "After the trial, write the metrics registry (reads, probes, batches, \
     cache and span counters) as a JSON object to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_file =
  let doc =
    "Run one profiled query through the engine (single dataset; repetitions \
     are ignored), print the per-run profile — cost counts reconciled \
     against the qaq.* counters, phase timers, histogram quantiles, and a \
     quality audit of achieved precision/recall against the requested \
     bounds using the dataset's ground truth — and write it as JSON to \
     $(docv).  Exits non-zero if the audit fails.  Guarantee enforcement \
     stays on regardless of --policy."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let chrome_trace_file =
  let doc =
    "Record the run as a Chrome trace (catapult JSON) in $(docv); open it \
     in chrome://tracing or Perfetto.  With --domains N the trace shows one \
     timeline lane per pool lane.  Runs the same profiled engine path as \
     --profile."
  in
  Arg.(
    value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE" ~doc)

let fault_rate =
  let doc =
    "Inject permanent probe failures at rate $(docv) (plus transient \
     failures at half that rate, retried up to 2 times).  The run \
     completes anyway: failed objects degrade to guarantee-aware write \
     decisions and the degradation summary is printed.  Uses the same \
     profiled engine path as --profile, and an audit miss that is \
     explained by flagged degradation does not fail the command."
  in
  Arg.(value & opt unit_interval 0.0 & info [ "fault-rate" ] ~docv:"RATE" ~doc)

let tiers_opt =
  let doc =
    "Probe through a tiered cascade instead of the single oracle \
     driver.  $(docv) is a semicolon-separated tier list, e.g. \
     \"proxy:cp=0.1,cb=1,B=32,shrink=0.8;oracle:cp=1,cb=5,B=8\".  Each \
     tier with a shrink=POWER key is a cheap proxy that narrows \
     objects instead of resolving them; the final tier (no shrink key) \
     is the oracle.  The optimizer prices probes at the cheapest \
     escalation strategy over the tiers and per-tier counters are \
     reported after the run.  Uses the profiled engine path; combines \
     with --fault-rate, in which case every tier draws an independent \
     fault stream and a dead proxy fails over to the tier below."
  in
  Arg.(
    value
    & opt (some Cli_flags.tiers) None
    & info [ "tiers" ] ~docv:"SPEC" ~doc)

let fault_seed =
  let doc =
    "Seed of the fault injector's own rng stream (independent of --seed: \
     injection never perturbs the query's decisions).  Runs are \
     deterministic per (seed, fault-seed) pair."
  in
  let env = Cmd.Env.info "QAQ_FAULT_SEED" ~doc:"Default for $(opt)." in
  Arg.(value & opt int 1337 & info [ "fault-seed" ] ~env ~doc)

let profiled_trial ~rng ~(s : Exp_config.setting) ~cost ~batch ~policy ~domains
    ~trace ~metrics_file ~profile_file ~chrome_file ~fault_rate ~fault_seed
    ~tiers ~budget ~deadline data =
  let recorder = Option.map (fun _ -> Chrome_trace.create ()) chrome_file in
  let sink =
    let fmt =
      if trace then Trace.formatter Format.err_formatter else Trace.null
    in
    match recorder with
    | Some r -> Trace.tee (Chrome_trace.sink r) fmt
    | None -> fmt
  in
  let obs = Obs.create ~trace:sink () in
  let lanes = Domain_pool.resolve ?domains () in
  Option.iter (fun r -> Chrome_trace.declare_lanes r lanes) recorder;
  let on_task =
    Option.map
      (fun r ~lane ~start ~finish -> Chrome_trace.on_task r ~lane ~start ~finish)
      recorder
  in
  let planning =
    match policy with
    | Exp_runner.Qaq -> Engine.default_planning
    | Exp_runner.Stingy -> Engine.Fixed Policy.stingy_params
    | Exp_runner.Greedy -> Engine.Fixed Policy.greedy_params
    | Exp_runner.Fixed params -> Engine.Fixed params
  in
  let faults =
    if fault_rate > 0.0 then
      Some
        (Fault_plan.make ~seed:fault_seed ~permanent_rate:fault_rate
           ~transient_rate:(fault_rate /. 2.0) ())
    else None
  in
  (* One probe capability either way: the --tiers cascade, or the
     oracle driver as a one-tier cascade priced at the run's cost model.
     A tiered run takes its batch sizes from the tier specs. *)
  let cascade =
    match tiers with
    | Some specs ->
        fst
          (Tiered.of_functions ~obs ?faults ~max_retries:2 ~specs
             ~narrow:(fun ~power o -> Synthetic.shrink ~power o)
             ~resolve:Synthetic.probe ())
    | None ->
        Cascade.of_driver ~cost
          (match faults with
          | Some faults ->
              let source =
                Probe_source.create ~obs ~max_retries:2 ~faults Synthetic.probe
              in
              Probe_source.driver ~obs ~batch_size:batch source
          | None -> Probe_driver.of_scalar ~obs ~batch_size:batch Synthetic.probe)
  in
  let source = Scan_pipeline.rows ~instance:Synthetic.instance data in
  let earlier = Obs.snapshot obs in
  let result =
    Engine.run ~rng ~planning ~cost ~max_laxity:s.max_laxity ?budget
      ?deadline ?domains ~obs ?on_task ~instance:Synthetic.instance ~cascade
      ~requirements:(Exp_config.requirements s)
      source
  in
  let profile =
    Profile.of_run
      ~label:(Exp_runner.policy_name policy)
      ~oracle:Synthetic.in_exact ~earlier obs source result
  in
  Format.printf "%s (profiled): W/|T| = %.3f (%d probes in %d batches)@.@."
    (Exp_runner.policy_name policy)
    result.Engine.normalized_cost result.counts.Cost_meter.probes
    result.counts.Cost_meter.batches;
  print_budget_summary result;
  if tiers <> None then begin
    Format.printf "cascade (entered at tier %d):@." (Cascade.start cascade);
    Array.iter
      (fun (st : Cascade.stats) ->
        Format.printf
          "  tier %-12s %d probe(s), %d shrink(s), %d failure(s), %d \
           batch(es), %d failover(s)@."
          st.Cascade.st_name st.st_probes st.st_shrinks st.st_failures
          st.st_batches st.st_failovers)
      (Cascade.stats cascade)
  end;
  Profile.print profile;
  (let d = result.Engine.degradation in
   if d.Engine.failed_probes > 0 then
     Format.printf
       "degradation: %d probe(s) failed permanently (%d attempts, wasted \
        cost %.0f); %d forward fallback(s), %d ignore fallback(s), %d \
        forced; post-degradation guarantees %s the requirements@."
       d.Engine.failed_probes d.Engine.failed_attempts d.Engine.wasted_cost
       d.Engine.degraded_forwards d.Engine.degraded_ignores
       d.Engine.forced_actions
       (if d.Engine.requirements_met then "still meet" else "MISS"));
  (match profile_file with
  | Some path ->
      save_text path (Profile.to_json profile);
      Format.printf "profile written to %s@." path
  | None -> ());
  (match (recorder, chrome_file) with
  | Some r, Some path ->
      save path (Chrome_trace.write r);
      Format.printf "chrome trace (%d events) written to %s@." (Chrome_trace.events r) path
  | _ -> ());
  (match metrics_file with
  | Some path ->
      save_text path (Metrics.to_json (Obs.snapshot obs));
      Format.printf "metrics written to %s@." path
  | None -> ());
  if not (Profile.passed profile) then
    if Engine.degraded result && profile.Profile.reconcile_error = None then
      Format.eprintf
        "profile audit missed its bounds under flagged degradation (fault \
         injection active) — not failing the command@."
    else begin
      Format.eprintf "profile audit FAILED@.";
      exit 1
    end

let trial_run seed total (f_y, f_m) max_laxity p_q r_q l_q policy repetitions
    data_file batch c_b domains trace metrics_file profile_file chrome_file
    fault_rate fault_seed tiers budget deadline_ms =
  let s = setting total f_y f_m max_laxity p_q r_q l_q in
  let cost = cost_model c_b in
  let rng = Rng.create seed in
  let deadline = deadline_of_ms deadline_ms in
  (* A budgeted or deadlined trial goes through the profiled engine path:
     the budget is an engine contract (dual planning, mid-scan re-solves,
     the stop closure), not something the bare operator loop offers. *)
  let engine_path =
    profile_file <> None || chrome_file <> None || fault_rate > 0.0
    || tiers <> None || budget <> None || deadline <> None
  in
  if repetitions <> None && (engine_path || data_file <> None) then
    `Error
      ( true,
        "--repetitions repeats only the generated-series trial; it cannot be \
         combined with --data, --profile, --chrome-trace, --fault-rate, \
         --tiers, --budget or --deadline-ms" )
  else begin
    let repetitions = Option.value repetitions ~default:5 in
    if engine_path then begin
      let data, s =
        match data_file with
        | Some path ->
            let data = load Dataset_io.read_synthetic path in
            (data, { s with total = Array.length data })
        | None -> (Synthetic.generate rng (Exp_config.workload s), s)
      in
      profiled_trial ~rng ~s ~cost ~batch ~policy ~domains ~trace
        ~metrics_file ~profile_file ~chrome_file ~fault_rate ~fault_seed
        ~tiers ~budget ~deadline data
    end
    else begin
      let obs =
        if trace || metrics_file <> None then
          let sink =
            if trace then Trace.formatter Format.err_formatter else Trace.null
          in
          Some (Obs.create ~trace:sink ())
        else None
      in
      (match data_file with
      | Some path ->
          let data = load Dataset_io.read_synthetic path in
          let s = { s with total = Array.length data } in
          Format.printf "dataset: %s (%d objects)  %a@." path
            (Array.length data) Quality.pp_requirements
            (Exp_config.requirements s);
          let o =
            Exp_runner.trial_run ~rng ~cost ~batch ?obs ?domains ~setting:s
              ~data policy
          in
          Format.printf
            "%s: W/|T| = %.3f (%d probes in %d batches); guarantees %a; actual \
             precision %.3f, recall %.3f@."
            (Exp_runner.policy_name policy)
            o.normalized_cost o.counts.probes o.counts.batches
            Quality.pp_guarantees o.guarantees o.actual_precision
            o.actual_recall
      | None ->
          let results =
            Exp_runner.trial_series ~rng ~repetitions ~cost ~batch ?obs
              ?domains s [ policy ]
          in
          Format.printf "setting: |T|=%d f_y=%g f_m=%g L=%g  %a@." s.total
            s.f_y s.f_m s.max_laxity Quality.pp_requirements
            (Exp_config.requirements s);
          List.iter
            (fun (kind, (a : Exp_runner.aggregate)) ->
              Format.printf
                "%s: W/|T| = %.3f +/- %.3f over %d runs; actual precision \
                 %.3f, recall %.3f; worst violations p=%.3g r=%.3g@."
                (Exp_runner.policy_name kind)
                a.mean_cost a.ci95 a.repetitions a.mean_precision
                a.mean_recall a.worst_precision_violation
                a.worst_recall_violation)
            results);
      (match (obs, metrics_file) with
      | Some o, Some path ->
          save_text path (Metrics.to_json (Obs.snapshot o));
          Format.printf "metrics written to %s@." path
      | _ -> ())
    end;
    `Ok ()
  end

let trial_cmd =
  let doc = "Run the QaQ operator on the synthetic workload of section 5.2." in
  Cmd.v
    (Cmd.info "trial" ~doc)
    Term.(
      ret
        (const trial_run $ seed $ total $ fractions $ max_laxity $ p_q $ r_q
        $ l_q $ policy $ trial_repetitions $ data_file $ batch $ c_b
        $ domains $ trace_flag $ metrics_file $ profile_file
        $ chrome_trace_file $ fault_rate $ fault_seed $ tiers_opt
        $ budget_opt $ deadline_ms_opt))

(* ---- dataset ------------------------------------------------------ *)

let out_file =
  let doc = "Output path." in
  Arg.(required & opt (some string) None & info [ "out"; "o" ] ~doc)

let model_conv =
  let parse = function
    | "synthetic" -> Ok `Synthetic
    | "intervals" -> Ok `Intervals
    | s -> Error (`Msg (Printf.sprintf "unknown model %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with `Synthetic -> "synthetic" | `Intervals -> "intervals")
  in
  Arg.conv (parse, print)

let model =
  let doc =
    "Workload model: synthetic (the section 5.2 generator, consumed by \
     trial) or intervals (interval-belief records over hidden scalar \
     truths uniform in [0, max-laxity] — the input of convert and query)."
  in
  Arg.(value & opt model_conv `Synthetic & info [ "model" ] ~doc)

let max_width =
  let doc = "Maximum belief-interval width (intervals model only)." in
  Arg.(value & opt float 10.0 & info [ "max-width" ] ~doc)

let dataset_run seed total (f_y, f_m) max_laxity model max_width out =
  match model with
  | `Synthetic ->
      let cfg = Synthetic.config ~total ~f_y ~f_m ~max_laxity () in
      let data = Synthetic.generate (Rng.create seed) cfg in
      save out (fun out -> Dataset_io.write_synthetic out data);
      Format.printf "wrote %d objects to %s (exact set: %d)@." total out
        (Synthetic.exact_size data)
  | `Intervals ->
      let data =
        Interval_data.uniform_intervals (Rng.create seed) ~n:total
          ~value_range:(Interval.make 0.0 max_laxity) ~max_width
      in
      save out (fun out -> Dataset_io.write_records out data);
      Format.printf
        "wrote %d interval records to %s (truths in [0, %g], width <= %g)@."
        total out max_laxity max_width

let dataset_cmd =
  let doc = "Generate a workload and save it as CSV." in
  Cmd.v
    (Cmd.info "dataset" ~doc)
    Term.(
      const dataset_run $ seed $ total $ fractions $ max_laxity $ model
      $ max_width $ out_file)

(* ---- convert ------------------------------------------------------ *)

let csv_in =
  let doc = "Input interval-record CSV (see dataset --model intervals)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CSV" ~doc)

let chunk_size =
  let doc = "Rows per columnar chunk (also the zone-hull granularity)." in
  Arg.(value & opt int 64 & info [ "chunk-size" ] ~doc)

let convert_run input out chunk_size =
  let records = load Dataset_io.read_records input in
  let store = Interval_data.to_store ~chunk_size records in
  save out (fun out -> Dataset_io.save_columnar out store);
  Format.printf "wrote %d records in %d chunks of <= %d rows to %s@."
    (Column_store.length store)
    (Column_store.chunk_count store)
    (Column_store.chunk_size store)
    out

let convert_cmd =
  let doc =
    "Convert an interval-record CSV to a binary columnar chunk file (QCOL) \
     with per-chunk zone hulls."
  in
  Cmd.v
    (Cmd.info "convert" ~doc)
    Term.(const convert_run $ csv_in $ out_file $ chunk_size)

(* ---- query -------------------------------------------------------- *)

type layout = Row | Columnar

let layout_opt =
  let doc =
    "Storage layout for the scan: row (the reference object-at-a-time \
     path) or columnar (vectorized classification over column chunks).  \
     Both return bit-for-bit identical results."
  in
  Arg.(
    value
    & opt (enum [ ("row", Row); ("columnar", Columnar) ]) Row
    & info [ "layout" ] ~doc)

let prune_flag =
  let doc =
    "With $(b,--layout columnar), skip chunks whose zone hull proves every \
     row NO: the scan never fetches a skipped chunk (planning's laxity \
     pass still reads every chunk once).  A usage error with the row \
     layout, which cannot prune."
  in
  Arg.(value & flag & info [ "prune" ] ~doc)

(* [--layout] and [--prune] as a pair: pruning is columnar-only. *)
let layout_prune =
  let check layout prune =
    match (layout, prune) with
    | Row, true -> `Error (true, "--prune needs --layout columnar")
    | _ -> `Ok (layout, prune)
  in
  Term.(ret (const check $ layout_opt $ prune_flag))

let ge_opt =
  let doc = "Conjunct: value >= $(docv)." in
  Arg.(value & opt_all float [] & info [ "ge" ] ~docv:"X" ~doc)

let le_opt =
  let doc = "Conjunct: value <= $(docv)." in
  Arg.(value & opt_all float [] & info [ "le" ] ~docv:"X" ~doc)

let between_opt =
  let doc =
    "Conjunct: LO <= value <= HI.  Repeatable; all conjuncts are AND-ed."
  in
  Arg.(
    value
    & opt_all (pair ~sep:',' float float) []
    & info [ "between" ] ~docv:"LO,HI" ~doc)

let query_data =
  let doc =
    "Dataset to query: an interval-record CSV or a .qcol columnar chunk \
     file written by convert."
  in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA" ~doc)

let predicate_of ges les betweens =
  let conjuncts =
    List.map Predicate.ge ges
    @ List.map Predicate.le les
    @ List.map (fun (lo, hi) -> Predicate.between lo hi) betweens
  in
  match conjuncts with
  | [] -> None
  | p :: rest -> Some (List.fold_left Predicate.( &&& ) p rest)

let query_run seed data_path ges les betweens (layout, prune) p_q r_q l_q batch
    c_b domains metrics_file budget deadline_ms =
  let deadline = deadline_of_ms deadline_ms in
  let pred =
    match
      try predicate_of ges les betweens
      with Invalid_argument msg ->
        Format.eprintf "bad predicate: %s@." msg;
        exit 2
    with
    | Some p -> p
    | None ->
        Format.eprintf
          "query needs at least one of --ge, --le or --between@.";
        exit 2
  in
  let requirements =
    Quality.requirements ~precision:p_q ~recall:r_q ~laxity:l_q
  in
  let cost = cost_model c_b in
  let rng = Rng.create seed in
  let obs = if metrics_file <> None then Some (Obs.create ()) else None in
  let instance = Interval_data.instance pred in
  (* The columnar layout plans and scans the store itself; the row layout
     scans the records, rebuilt from a QCOL file as the reference path. *)
  let source_of_store store =
    match layout with
    | Row -> Scan_pipeline.rows ~instance (Interval_data.of_store store)
    | Columnar ->
        Scan_pipeline.store ~prune ~of_row:Interval_data.of_row ~pred store
  in
  let run (source : _ Scan_pipeline.t) =
    let probe =
      Probe_driver.of_scalar ?obs ~batch_size:batch Interval_data.probe
    in
    ( Engine.run ~rng ~cost ?budget ?deadline ?domains ?obs ~instance ~probe
        ~requirements source,
      source.length )
  in
  let result, total =
    if Filename.check_suffix data_path ".qcol" then
      load
        (fun path ->
          Dataset_io.with_columnar ?obs path (fun store ->
              run (source_of_store store)))
        data_path
    else
      let data = load Dataset_io.read_records data_path in
      run
        (match layout with
        | Row -> Scan_pipeline.rows ~instance data
        | Columnar ->
            source_of_store (Interval_data.to_store ~chunk_size:64 data))
  in
  let report = result.Engine.report in
  let precise =
    List.length
      (List.filter (fun e -> e.Operator.precise) report.Operator.answer)
  in
  Format.printf "query: %s over %s (%d records), layout %s%s@."
    (Predicate.to_string pred) data_path total
    (match layout with Row -> "row" | Columnar -> "columnar")
    (if prune then " with pruning" else "");
  Format.printf
    "answer: %d object(s) (%d precise, %d imprecise); guarantees %a for \
     required %a@."
    report.Operator.answer_size precise
    (report.Operator.answer_size - precise)
    Quality.pp_guarantees report.Operator.guarantees Quality.pp_requirements
    requirements;
  Format.printf "cost: W/|T| = %.3f (%d reads, %d probes in %d batches)@."
    result.Engine.normalized_cost result.Engine.counts.Cost_meter.reads
    result.Engine.counts.Cost_meter.probes
    result.Engine.counts.Cost_meter.batches;
  print_budget_summary result;
  match (obs, metrics_file) with
  | Some o, Some path ->
      save_text path (Metrics.to_json (Obs.snapshot o));
      Format.printf "metrics written to %s@." path
  | _ -> ()

let query_cmd =
  let doc =
    "Run a quality-aware selection over an interval dataset (CSV or QCOL)."
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      const query_run $ seed $ query_data $ ge_opt $ le_opt $ between_opt
      $ layout_prune $ p_q $ r_q $ l_q $ batch $ c_b $ domains
      $ metrics_file $ budget_opt $ deadline_ms_opt)

(* ---- tables ------------------------------------------------------- *)

let sweep_arg =
  let doc =
    "Sweep to run: laxity, precision, recall, selectivity, uncertainty, or \
     'all'."
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"SWEEP" ~doc)

let tables_run seed sweep_id repetitions =
  let sweeps =
    if String.equal sweep_id "all" then Exp_config.all_sweeps
    else
      match Exp_config.find_sweep sweep_id with
      | Some s -> [ s ]
      | None ->
          Printf.eprintf "unknown sweep %S\n" sweep_id;
          exit 2
  in
  List.iter
    (fun sweep ->
      Text_table.print (Exp_report.opt_table sweep);
      print_newline ();
      let rng = Rng.create seed in
      Text_table.print (Exp_report.trial_table ~rng ~repetitions sweep);
      print_newline ())
    sweeps

let tables_cmd =
  let doc = "Regenerate the paper's tables (sections 5.1 and 5.2)." in
  Cmd.v
    (Cmd.info "tables" ~doc)
    Term.(const tables_run $ seed $ sweep_arg $ repetitions)

(* ---- regions ------------------------------------------------------ *)

let regions_run p_q r_q l_q max_laxity (f_y, f_m) total =
  let s = setting total f_y f_m max_laxity p_q r_q l_q in
  let params = (Exp_runner.solve_setting s).params in
  Format.printf "decision regions (Figs. 2-3) for %a, optimal %a@."
    Quality.pp_requirements (Exp_config.requirements s) Policy.pp_params params;
  (* s on the x axis (0..1), laxity on the y axis (0..L), top-down. *)
  let rows = 16 and cols = 41 in
  Format.printf "  l(o)@.";
  for row = rows - 1 downto 0 do
    let laxity = (float_of_int row +. 0.5) /. float_of_int rows *. max_laxity in
    Format.printf "%6.1f |" laxity;
    for col = 0 to cols - 1 do
      let success = float_of_int col /. float_of_int (cols - 1) in
      let region =
        Policy.region_of ~params ~laxity_bound:l_q ~verdict:Tvl.Maybe ~laxity
          ~success
      in
      Format.printf "%d" region
    done;
    let yes_region =
      Policy.region_of ~params ~laxity_bound:l_q ~verdict:Tvl.Yes ~laxity
        ~success:1.0
    in
    Format.printf "| YES:%d@." yes_region
  done;
  Format.printf "        %s@." (String.make cols '-');
  Format.printf "        s(o) = 0 %s 1@." (String.make (cols - 18) ' ');
  Format.printf
    "regions: 1 NO-discard, 2 ignore, 3 probe (l>l_q), 4 forward/ignore, \
     5 probe (l<=l_q), 6 YES probe/ignore, 7 YES forward@."

let regions_cmd =
  let doc = "Show the optimal decision regions on the (s, l) plane." in
  Cmd.v
    (Cmd.info "regions" ~doc)
    Term.(const regions_run $ p_q $ r_q $ l_q $ max_laxity $ fractions $ total)

(* ---- watch: live SLO dashboard over a qaq-server socket ----------- *)

(* Speak the qaq-server line protocol (HEALTH + SLO) over its Unix
   socket and render the rolling per-tenant numbers as a dashboard,
   refreshed in place.  Read-only: watching never perturbs the server
   beyond answering the two verbs. *)

let kvs_of_tokens tokens =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
          Some
            (String.sub tok 0 i,
             String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> None)
    tokens

let watch_fetch path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let inc = Unix.in_channel_of_descr sock in
      let out = Unix.out_channel_of_descr sock in
      output_string out "HEALTH\nSLO\n";
      flush out;
      let health =
        match String.split_on_char ' ' (input_line inc) with
        | "HEALTH" :: rest -> kvs_of_tokens rest
        | _ -> []
      in
      let rec slo_lines acc =
        match input_line inc with
        | "OK" -> List.rev acc
        | line -> (
            match String.split_on_char ' ' line with
            | "SLO" :: rest -> slo_lines (kvs_of_tokens rest :: acc)
            | _ -> slo_lines acc)
        | exception End_of_file -> List.rev acc
      in
      (health, slo_lines []))

let watch_render (health, tenants) =
  let get kvs k = Option.value (List.assoc_opt k kvs) ~default:"-" in
  let ms kvs k =
    match float_of_string_opt (get kvs k) with
    | Some v when Float.is_finite v -> Printf.sprintf "%.1f" (v *. 1000.0)
    | _ -> "-"
  in
  let row label kvs =
    [
      label; get kvs "requests"; get kvs "rate"; ms kvs "p50"; ms kvs "p99";
      get kvs "probe_rate"; get kvs "degraded"; get kvs "rejections";
      get kvs "shortfalls";
    ]
  in
  let table =
    Text_table.create
      ~title:(Printf.sprintf "live SLO (window %ss)" (get health "window"))
      ~header:
        [
          "tenant"; "req"; "req/s"; "p50 ms"; "p99 ms"; "probe/s"; "degr";
          "rej"; "short";
        ]
  in
  List.iter
    (fun kvs -> Text_table.add_row table (row (get kvs "tenant") kvs))
    tenants;
  Text_table.add_row table (row "(all)" health);
  print_string (Text_table.render table);
  Printf.printf "recorder: %s events, %s dumps | breaker: %s\n%!"
    (get health "recorded") (get health "dumps") (get health "breaker")

let watch_run socket interval count =
  if count < 0 then (
    Printf.eprintf "watch: --count must be >= 0\n";
    exit 2);
  let rec loop i =
    if count = 0 || i < count then begin
      (match watch_fetch socket with
      | snapshot ->
          (* Refresh in place unless this is a one-shot. *)
          if count <> 1 then print_string "\027[2J\027[H";
          watch_render snapshot
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "watch: %s: %s\n%!" socket (Unix.error_message e);
          exit 1);
      if count = 0 || i + 1 < count then Unix.sleepf interval;
      loop (i + 1)
    end
  in
  loop 0

let watch_cmd =
  let socket =
    let doc = "The qaq-server Unix domain socket to watch." in
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let interval =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 2.0 & info [ "interval"; "i" ] ~docv:"SECONDS" ~doc)
  in
  let count =
    let doc = "Number of refreshes (0 = until interrupted)." in
    Arg.(value & opt int 0 & info [ "count"; "n" ] ~docv:"N" ~doc)
  in
  let doc = "Watch a running qaq-server's rolling per-tenant SLOs live." in
  Cmd.v (Cmd.info "watch" ~doc) Term.(const watch_run $ socket $ interval $ count)

(* ---- main --------------------------------------------------------- *)

let () =
  let doc = "Approximate selection queries over imprecise data (ICDE 2004)" in
  let info = Cmd.info "qaq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd; trial_cmd; dataset_cmd; convert_cmd; query_cmd;
            tables_cmd; regions_cmd; watch_cmd;
          ]))
