let f2 = Printf.sprintf "%.2f"
let f3 = Printf.sprintf "%.3g"

let opt_table (sweep : Exp_config.sweep) =
  let paper = Paper_tables.opt_rows ~sweep_id:sweep.id in
  let with_reads = List.exists (fun (r : Paper_tables.opt_row) -> r.read_fraction <> None) paper in
  let header =
    [ sweep.varied; "s3"; "s5"; "p_py"; "p_fm"; "W/|T|"; "paper W/|T|" ]
    @ (if with_reads then [ "R/|T|"; "paper R/|T|" ] else [])
    @ [ "paper (s3 s5 p_py p_fm)" ]
  in
  let table =
    Text_table.create ~title:("[5.1] " ^ sweep.title) ~header
  in
  List.iter2
    (fun (s : Exp_config.setting) (p : Paper_tables.opt_row) ->
      let e = Lazy.force (Exp_runner.solve_setting s).evaluation in
      let params = e.params in
      let row =
        [ s.label; f3 params.s3; f3 params.s5; f3 params.p_py; f3 params.p_fm;
          f3 e.normalized_cost; f3 p.w_norm ]
        @ (if with_reads then
             [ f3 e.read_fraction;
               (match p.read_fraction with Some r -> f3 r | None -> "-") ]
           else [])
        @ [ Printf.sprintf "%g %g %g %g" p.s3 p.s5 p.p_py p.p_fm ]
      in
      Text_table.add_row table row)
    sweep.settings paper;
  table

let trial_table ~rng ?(repetitions = 5) (sweep : Exp_config.sweep) =
  let paper = Paper_tables.trial_rows ~sweep_id:sweep.id in
  let header =
    [ sweep.varied; "QaQ"; "paper"; "Stingy"; "paper"; "Greedy"; "paper" ]
  in
  let table = Text_table.create ~title:("[5.2] " ^ sweep.title) ~header in
  List.iter2
    (fun (s : Exp_config.setting) (p : Paper_tables.trial_row) ->
      let results =
        Exp_runner.trial_series ~rng ~repetitions s
          [ Exp_runner.Qaq; Exp_runner.Stingy; Exp_runner.Greedy ]
      in
      let mean kind =
        match List.assoc_opt kind results with
        | Some (a : Exp_runner.aggregate) ->
            Printf.sprintf "%s±%s" (f2 a.mean_cost) (f2 a.ci95)
        | None -> "-"
      in
      Text_table.add_row table
        [ s.label;
          mean Exp_runner.Qaq; f2 p.qaq;
          mean Exp_runner.Stingy; f2 p.stingy;
          mean Exp_runner.Greedy; f2 p.greedy ])
    sweep.settings paper;
  table

let quality_table ~rng ?(repetitions = 5) (sweep : Exp_config.sweep) =
  let header =
    [ sweep.varied;
      "QaQ max p-viol"; "QaQ max r-viol";
      "Stingy max p-viol"; "Stingy max r-viol";
      "Greedy(raw) max p-viol"; "Greedy(raw) max r-viol" ]
  in
  let table =
    Text_table.create
      ~title:("[soundness] Worst observed requirement violations — " ^ sweep.title)
      ~header
  in
  List.iter
    (fun (s : Exp_config.setting) ->
      let results =
        Exp_runner.trial_series ~rng ~repetitions s
          [ Exp_runner.Qaq; Exp_runner.Stingy; Exp_runner.Greedy ]
      in
      let viols kind =
        match List.assoc_opt kind results with
        | Some (a : Exp_runner.aggregate) ->
            [ f3 a.worst_precision_violation; f3 a.worst_recall_violation ]
        | None -> [ "-"; "-" ]
      in
      Text_table.add_row table
        ((s.label :: viols Exp_runner.Qaq)
        @ viols Exp_runner.Stingy @ viols Exp_runner.Greedy))
    sweep.settings;
  table
