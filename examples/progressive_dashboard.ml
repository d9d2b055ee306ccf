(* Progressive evaluation: watch the guarantees converge.

   Operator.trace samples the quality guarantees after every read, so a
   dashboard can show an answer firming up in real time: the recall
   guarantee climbs towards the requirement while precision and laxity
   never leave their bounds (Theorem 3.1 enforcement).  This example
   renders the recall trajectory as an ASCII chart and shows how a
   stricter recall bound stretches the scan.

   Run with:  dune exec examples/progressive_dashboard.exe *)

let sparkline samples ~width ~target =
  let n = List.length samples in
  if n = 0 then ""
  else begin
    let arr = Array.of_list samples in
    let levels = "_.:-=+*#%@" in
    String.init width (fun i ->
        let idx = i * n / width in
        let _, (g : Quality.guarantees) = arr.(idx) in
        let frac = Float.min 1.0 (g.recall /. target) in
        levels.[Stdlib.min 9 (int_of_float (frac *. 9.99))])
  end

let () =
  let rng = Rng.create 90 in
  let data =
    Synthetic.generate rng (Synthetic.config ~total:10000 ~f_y:0.2 ~f_m:0.2 ())
  in
  Printf.printf
    "recall-guarantee trajectory (one column ~ 125 reads; full bar = bound met)\n\n";
  List.iter
    (fun r_q ->
      let requirements =
        Quality.requirements ~precision:0.9 ~recall:r_q ~laxity:50.0
      in
      let params =
        (Exp_runner.solve_setting { Exp_config.default with r_q; label = "x" })
          .params
      in
      let report, samples =
        Operator.trace ~rng ~every:50 ~instance:Synthetic.instance
          ~cascade:(Cascade.of_driver (Probe_driver.scalar Synthetic.probe))
          ~policy:(Policy.qaq params)
          ~requirements
          (Operator.source_of_array data)
      in
      Printf.printf "r_q = %-4g |%-80s| reads %5d, W/|T| %.2f\n" r_q
        (sparkline samples ~width:80 ~target:r_q)
        report.counts.reads
        (Operator.normalized_cost Cost_model.paper ~total:(Array.length data)
           report))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ];
  Printf.printf
    "\nprecision and laxity hold at every checkpoint; only recall is earned\n\
     gradually — that is the quality/performance dial of the paper.\n"
