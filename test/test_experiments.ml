(* Regression tests for the experiment harness: the reproduction must
   keep tracking the paper's published numbers. *)

let find_sweep id = Option.get (Exp_config.find_sweep id)

let checkb = Alcotest.(check bool)

let test_sweeps_well_formed () =
  List.iter
    (fun (sweep : Exp_config.sweep) ->
      checkb "has settings" true (List.length sweep.settings > 0);
      (* One paper row per setting, in the same order. *)
      let opt = Paper_tables.opt_rows ~sweep_id:sweep.id in
      let trial = Paper_tables.trial_rows ~sweep_id:sweep.id in
      Alcotest.(check int) "opt arity" (List.length sweep.settings) (List.length opt);
      Alcotest.(check int) "trial arity" (List.length sweep.settings) (List.length trial);
      List.iter2
        (fun (s : Exp_config.setting) (p : Paper_tables.opt_row) ->
          Alcotest.(check string) "labels align" s.label p.label)
        sweep.settings opt)
    Exp_config.all_sweeps;
  checkb "find_sweep" true (Exp_config.find_sweep "laxity" <> None);
  checkb "find_sweep missing" true (Exp_config.find_sweep "nope" = None)

(* §5.1 regression across a full sweep: optimal cost within 5% + 0.05 of
   the paper (paper values are printed to one decimal).  The known
   inconsistent row (uncertainty, f_m = 0.6) is excluded. *)
let test_opt_costs_track_paper () =
  List.iter
    (fun (sweep : Exp_config.sweep) ->
      let paper = Paper_tables.opt_rows ~sweep_id:sweep.id in
      List.iter2
        (fun (s : Exp_config.setting) (row : Paper_tables.opt_row) ->
          let skip = String.equal sweep.id "uncertainty" && String.equal row.label "0.6" in
          if not skip then begin
            let e = Lazy.force (Exp_runner.solve_setting s).evaluation in
            checkb (Printf.sprintf "%s/%s feasible" sweep.id s.label) true e.feasible;
            let tolerance = (0.05 *. row.w_norm) +. 0.05 in
            checkb
              (Printf.sprintf "%s/%s cost %.3f ~ paper %.2f" sweep.id s.label
                 e.normalized_cost row.w_norm)
              true
              (Float.abs (e.normalized_cost -. row.w_norm) <= tolerance)
          end)
        sweep.settings paper)
    [ find_sweep "laxity"; find_sweep "uncertainty" ]

(* §5.2 regression on the default setting: measured trial costs within a
   modest band of the paper's, and the paper's headline ordering holds
   (QaQ <= Stingy at the default point; Greedy worst). *)
let test_trial_costs_track_paper () =
  let rng = Rng.create 99 in
  let setting = { Exp_config.default with label = "default" } in
  let results =
    Exp_runner.trial_series ~rng ~repetitions:5 setting
      [ Exp_runner.Qaq; Exp_runner.Stingy; Exp_runner.Greedy ]
  in
  let cost kind = (List.assoc kind results).Exp_runner.mean_cost in
  (* Paper (varying precision, p_q = 0.9): QaQ 10.2, Stingy 11.8,
     Greedy 16.7. *)
  let within value paper band =
    Float.abs (value -. paper) <= band *. paper
  in
  checkb "QaQ near paper" true (within (cost Exp_runner.Qaq) 10.2 0.2);
  checkb "Stingy near paper" true (within (cost Exp_runner.Stingy) 11.8 0.2);
  checkb "Greedy near paper" true (within (cost Exp_runner.Greedy) 16.7 0.2);
  checkb "QaQ beats Stingy" true (cost Exp_runner.Qaq < cost Exp_runner.Stingy);
  checkb "Stingy beats Greedy" true (cost Exp_runner.Stingy < cost Exp_runner.Greedy)

(* Soundness across a sweep: the enforced policies never violate their
   requirements, on any run. *)
let test_enforced_policies_never_violate () =
  let rng = Rng.create 123 in
  List.iter
    (fun (s : Exp_config.setting) ->
      let s = { s with total = 3000 } in
      List.iter
        (fun (_, (a : Exp_runner.aggregate)) ->
          checkb "no precision violation" true (a.worst_precision_violation <= 1e-9);
          checkb "no recall violation" true (a.worst_recall_violation <= 1e-9))
        (Exp_runner.trial_series ~rng ~repetitions:2 s
           [ Exp_runner.Qaq; Exp_runner.Stingy ]))
    (find_sweep "recall").settings

(* The crossover the paper highlights: at very high recall Greedy's
   aggressive policy wins over Stingy's. *)
let test_recall_crossover_shape () =
  let rng = Rng.create 7 in
  let at r_q =
    let s = { Exp_config.default with r_q; label = "x" } in
    Exp_runner.trial_series ~rng ~repetitions:3 s
      [ Exp_runner.Stingy; Exp_runner.Greedy ]
  in
  let cost results kind = (List.assoc kind results).Exp_runner.mean_cost in
  let low = at 0.1 in
  checkb "low recall: Stingy wins big" true
    (cost low Exp_runner.Stingy < 0.5 *. cost low Exp_runner.Greedy);
  let high = at 0.99 in
  checkb "high recall: Greedy wins" true
    (cost high Exp_runner.Greedy < cost high Exp_runner.Stingy)

let test_trial_outcome_fields () =
  let rng = Rng.create 11 in
  let setting = { Exp_config.default with total = 2000; label = "t" } in
  let data = Synthetic.generate rng (Exp_config.workload setting) in
  let o = Exp_runner.trial_run ~rng ~setting ~data Exp_runner.Stingy in
  checkb "met requirements" true o.met_requirements;
  checkb "read fraction sane" true (o.read_fraction > 0.0 && o.read_fraction <= 1.0);
  checkb "params recorded" true (o.params_used = Some Policy.stingy_params);
  checkb "cost consistent with counts" true
    (Float.abs
       (o.cost -. Cost_meter.cost_of_counts Cost_model.paper o.counts)
    < 1e-9)

(* An aggregate over no runs would print zero-cost, zero-quality rows
   as if they were measured. *)
let test_zero_repetitions_rejected () =
  let rng = Rng.create 3 in
  let setting = { Exp_config.default with total = 500; label = "t" } in
  Alcotest.check_raises "repetitions 0"
    (Invalid_argument "Exp_runner.trial_series: repetitions < 1") (fun () ->
      ignore
        (Exp_runner.trial_series ~rng ~repetitions:0 setting
           [ Exp_runner.Qaq ]))

let suite =
  [
    ("sweeps well formed", `Quick, test_sweeps_well_formed);
    ("5.1 optimal costs track paper", `Slow, test_opt_costs_track_paper);
    ("5.2 trial costs track paper", `Slow, test_trial_costs_track_paper);
    ("enforced policies never violate", `Slow, test_enforced_policies_never_violate);
    ("recall crossover shape", `Slow, test_recall_crossover_shape);
    ("trial outcome fields", `Quick, test_trial_outcome_fields);
    ("zero repetitions rejected", `Quick, test_zero_repetitions_rejected);
  ]
