(* Sensor monitoring: the paper's perfect-recall scenario (§2.1).

   A field of 5 000 temperature sensors is replicated at the query site
   as intervals (±tolerance around the last transmitted value).  The
   safety query "all sensors above the critical threshold" needs perfect
   recall — missing a hot sensor could mean an accident — but tolerates
   imperfect precision.  A routine dashboard query, by contrast, is happy
   with recall 0.5 and pays an order of magnitude less.

   Run with:  dune exec examples/sensor_monitoring.exe *)

let critical = 90.0

let run_query net ~label ~requirements =
  let rng = Rng.create 11 in
  let predicate = Predicate.ge critical in
  let readings = Sensor_net.snapshot net in
  (* Network probes are expensive: simulate 20ms latency with jitter and
     2% transient failure. *)
  let source =
    Probe_source.create ~latency:(Probe_source.Jittered { base = 20.0; jitter = 5.0 })
      ~failure_rate:0.02 ~rng:(Rng.create 7) Sensor_net.probe
  in
  let report =
    Operator.run ~rng
      ~instance:(Sensor_net.instance predicate)
      ~cascade:(Cascade.of_driver (Probe_source.driver source))
      ~policy:Policy.stingy (* guards force exactly the needed probes *)
      ~requirements
      (Operator.source_of_array readings)
  in
  let stats = Probe_source.stats source in
  Format.printf "%-22s answer=%4d  probes=%4d (%.0f time units over the air)@."
    label report.answer_size stats.probes stats.simulated_latency;
  Format.printf "%-22s guarantees: %a@." "" Quality.pp_guarantees
    report.guarantees;
  (* Sanity: every sensor that is truly hot must be in a perfect-recall
     answer. *)
  if requirements.Quality.recall >= 1.0 then begin
    let hot = Sensor_net.exact_size predicate readings in
    let answered_hot =
      List.length
        (List.filter
           (fun e -> Sensor_net.in_exact predicate e.Operator.obj)
           report.answer)
    in
    Format.printf "%-22s truly hot sensors: %d, of which answered: %d@." ""
      hot answered_hot;
    assert (answered_hot = hot)
  end

let () =
  let rng = Rng.create 365 in
  let net =
    Sensor_net.create rng ~n:5000
      ~value_range:(Interval.make 20.0 100.0)
      ~tolerance_range:(Interval.make 0.5 4.0)
      ~drift_stddev:0.8
  in
  (* Let the field run for a while; replicas re-centre only on escape. *)
  for _ = 1 to 50 do
    Sensor_net.step net
  done;
  Format.printf "sensor field: %d sensors, %d replica transmissions in 50 steps@."
    (Sensor_net.size net) (Sensor_net.transmissions net);

  Format.printf "@.Safety query: temperature >= %g, perfect recall@." critical;
  run_query net ~label:"  r_q = 1.0 (safety)"
    ~requirements:(Quality.requirements ~precision:0.5 ~recall:1.0 ~laxity:8.0);

  Format.printf "@.Dashboard query: same predicate, relaxed recall@.";
  run_query net ~label:"  r_q = 0.5 (dashboard)"
    ~requirements:(Quality.requirements ~precision:0.5 ~recall:0.5 ~laxity:8.0)
