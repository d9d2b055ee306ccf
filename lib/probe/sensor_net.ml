type sensor = {
  id : int;
  tolerance : float;
  mutable value : float;
  mutable cached : Interval.t;
}

type instruments = {
  i_obs : Obs.t;
  m_transmissions : Metrics.counter;
  m_wakeups : Metrics.counter;
  m_messages : Metrics.counter;
  m_retry_wakeups : Metrics.counter;
  m_retry_messages : Metrics.counter;
  m_retried : Metrics.counter;
  m_tier_retried : Metrics.counter option;
  h_roundtrip : Metrics.histogram;
}

type t = {
  rng : Rng.t;
  sensors : sensor array;
  drift_stddev : float;
  faults : Fault_plan.t option;
  breaker : Circuit_breaker.t option;
  max_retries : int;
  ins : instruments option;
  mutable transmissions : int;
  mutable probe_wakeups : int;
  mutable probe_messages : int;
  mutable retry_wakeups : int;
  mutable retry_messages : int;
  mutable round : int;
}

let create ?obs ?tier ?(faults = Fault_plan.none) rng ~n ~value_range
    ~tolerance_range ~drift_stddev =
  if n < 0 then invalid_arg "Sensor_net.create: n < 0";
  if Interval.lo tolerance_range <= 0.0 then
    invalid_arg "Sensor_net.create: tolerances must be positive";
  if drift_stddev < 0.0 then invalid_arg "Sensor_net.create: drift_stddev < 0";
  let sensors =
    Array.init n (fun id ->
        let value = Interval.sample rng value_range in
        let tolerance = Interval.sample rng tolerance_range in
        {
          id;
          tolerance;
          value;
          cached = Interval.make (value -. tolerance) (value +. tolerance);
        })
  in
  let prefix =
    match tier with None -> "sensor_net" | Some name -> "sensor_net." ^ name
  in
  let ins =
    Option.map
      (fun o ->
        {
          i_obs = o;
          m_transmissions = Obs.counter o (prefix ^ ".transmissions");
          m_wakeups = Obs.counter o (prefix ^ ".probe_wakeups");
          m_messages = Obs.counter o (prefix ^ ".probe_messages");
          m_retry_wakeups = Obs.counter o (prefix ^ ".retry_wakeups");
          m_retry_messages = Obs.counter o (prefix ^ ".retry_messages");
          m_retried = Obs.counter o Obs.Keys.fault_retried;
          m_tier_retried =
            Option.map
              (fun name -> Obs.counter o (Obs.Keys.tier_retried name))
              tier;
          h_roundtrip = Obs.histogram o (prefix ^ ".roundtrip_seconds");
        })
      obs
  in
  let injector = Fault_plan.injector_opt ?obs ~site:prefix faults in
  {
    rng;
    sensors;
    drift_stddev;
    faults = injector;
    (* A net with failure modes also gets a breaker: radios that are
       down should be left alone, not hammered every round. *)
    breaker =
      (match injector with
      | Some _ -> Some (Circuit_breaker.create ?obs ())
      | None -> None);
    max_retries = faults.Fault_plan.max_retries;
    ins;
    transmissions = 0;
    probe_wakeups = 0;
    probe_messages = 0;
    retry_wakeups = 0;
    retry_messages = 0;
    round = 0;
  }

let size t = Array.length t.sensors

let step t =
  Array.iter
    (fun s ->
      s.value <- s.value +. Rng.gaussian t.rng ~mean:0.0 ~stddev:t.drift_stddev;
      if not (Interval.contains s.cached s.value) then begin
        (* Escape: the sensor transmits a re-centred interval, keeping the
           replica sound. *)
        s.cached <- Interval.make (s.value -. s.tolerance) (s.value +. s.tolerance);
        t.transmissions <- t.transmissions + 1;
        match t.ins with
        | Some i -> Metrics.incr i.m_transmissions
        | None -> ()
      end)
    t.sensors

let transmissions t = t.transmissions

type reading = {
  sensor_id : int;
  cached : Interval.t;
  current : float;
  resolved : bool;
}

let snapshot t =
  Array.map
    (fun s ->
      { sensor_id = s.id; cached = s.cached; current = s.value; resolved = false })
    t.sensors

let belief r =
  if r.resolved then Uncertain.exact r.current else Uncertain.Interval r.cached

let instance pred : reading Operator.instance =
  {
    classify = (fun r -> Predicate.classify pred (belief r));
    laxity = (fun r -> Uncertain.laxity (belief r));
    success = (fun r -> Predicate.success pred (belief r));
  }

let probe r = { r with resolved = true }

let breaker_state_name = Circuit_breaker.state_name

let trace_breaker t ~round state =
  match t.ins with
  | Some i when Obs.tracing i.i_obs ->
      Obs.event i.i_obs
        (Trace.Breaker { state = breaker_state_name state; round })
  | _ -> ()

(* One radio wakeup serves however many sensors are still pending; each
   answers with its own message.  Without faults the whole batch
   resolves in a single round — one wakeup, [n] messages, exactly the
   pre-fault accounting.  With faults, failed sensors ride along to the
   next round until the retry budget runs out (settling as [Failed]),
   scripted outages silence individual sensors for whole round windows,
   and the breaker refuses rounds entirely while the net looks dead —
   refused rounds wake no radio and burn no retry budget. *)
let probe_batch_outcomes t readings =
  let n = Array.length readings in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let tries = Array.make n 0 in
    (* Permanence is drawn per element in index order up front, so the
       draw sequence is independent of the retry interleaving. *)
    let elements =
      match t.faults with
      | Some f -> Array.init n (fun _ -> Some (Fault_plan.fresh_element f))
      | None -> Array.make n None
    in
    let pending = ref (List.init n Fun.id) in
    (* Executed rounds of THIS batch: every round after the first is
       pure retry traffic.  Keeping it separate from the lifetime
       wakeup/message counters means a degraded net's retry burn is
       attributable instead of lumped into normal probe traffic. *)
    let rounds_run = ref 0 in
    while !pending <> [] do
      let round = t.round in
      t.round <- round + 1;
      let run_round =
        match t.breaker with
        | Some b ->
            let before = Circuit_breaker.state b in
            let ok = Circuit_breaker.allow b ~round in
            if Circuit_breaker.state b <> before then
              trace_breaker t ~round (Circuit_breaker.state b);
            ok
        | None -> true
      in
      if run_round then begin
        let attempted = List.length !pending in
        t.probe_wakeups <- t.probe_wakeups + 1;
        t.probe_messages <- t.probe_messages + attempted;
        if !rounds_run > 0 then begin
          t.retry_wakeups <- t.retry_wakeups + 1;
          t.retry_messages <- t.retry_messages + attempted
        end;
        (match t.ins with
        | Some i ->
            Metrics.incr i.m_wakeups;
            Metrics.add i.m_messages attempted;
            if !rounds_run > 0 then begin
              Metrics.incr i.m_retry_wakeups;
              Metrics.add i.m_retry_messages attempted
            end
        | None -> ());
        incr rounds_run;
        let resolved_this_round = ref 0 in
        let resolve_pending () =
          pending :=
            List.filter
              (fun i ->
                tries.(i) <- tries.(i) + 1;
                let fails =
                  match (t.faults, elements.(i)) with
                  | Some f, Some e ->
                      Fault_plan.outage_active f ~node:readings.(i).sensor_id
                        ~round
                      || Fault_plan.attempt f e ~round
                  | _ -> false
                in
                if fails then
                  if tries.(i) > t.max_retries then begin
                    results.(i) <-
                      Some (Probe_driver.Failed { attempts = tries.(i) });
                    false
                  end
                  else begin
                    (match t.ins with
                    | Some ins ->
                        Metrics.incr ins.m_retried;
                        Option.iter Metrics.incr ins.m_tier_retried
                    | None -> ());
                    true
                  end
                else begin
                  results.(i) <-
                    Some (Probe_driver.Resolved (probe readings.(i)));
                  incr resolved_this_round;
                  false
                end)
              !pending
        in
        (match t.ins with
        | Some i ->
            (* The round trip, wakeup to last answer, as one
               observation. *)
            let t0 = Obs.now i.i_obs in
            resolve_pending ();
            Metrics.observe i.h_roundtrip
              (Float.max 0.0 (Obs.now i.i_obs -. t0))
        | None -> resolve_pending ());
        match t.breaker with
        | Some b ->
            let before = Circuit_breaker.state b in
            if !resolved_this_round > 0 then
              Circuit_breaker.record_success b ~round
            else Circuit_breaker.record_failure b ~round;
            if Circuit_breaker.state b <> before then
              trace_breaker t ~round (Circuit_breaker.state b)
        | None -> ()
      end
    done;
    Array.map (function Some o -> o | None -> assert false) results
  end

let batch_driver ?obs ?(batch_size = 1) t =
  Probe_driver.create_outcomes ?obs ~batch_size (probe_batch_outcomes t)

let breaker t = t.breaker
let rounds t = t.round
let probe_wakeups t = t.probe_wakeups
let probe_messages t = t.probe_messages
let retry_wakeups t = t.retry_wakeups
let retry_messages t = t.retry_messages
let in_exact pred r = Predicate.eval pred r.current

let exact_size pred readings =
  Array.fold_left
    (fun acc r -> if in_exact pred r then acc + 1 else acc)
    0 readings
