type latency =
  | Instant
  | Constant of float
  | Jittered of { base : float; jitter : float }

type instruments = {
  m_attempts : Metrics.counter;
  m_resolved : Metrics.counter;
  m_tier_retried : Metrics.counter option;
  h_latency : Metrics.histogram;
}

type 'o t = {
  resolve : 'o -> 'o;
  latency : latency;
  failure_rate : float;
  max_retries : int;
  rng : Rng.t option;
  faults : Fault_plan.t option;
  ins : instruments option;
  mutable probes : int;
  mutable attempts : int;
  mutable batches : int;
  mutable simulated_latency : float;
}

let create ?obs ?tier ?(latency = Instant) ?(failure_rate = 0.0)
    ?(max_retries = 10) ?rng ?(faults = Fault_plan.none) resolve =
  if not (failure_rate >= 0.0 && failure_rate < 1.0) then
    invalid_arg "Probe_source.create: failure_rate outside [0, 1)";
  if max_retries < 0 then invalid_arg "Probe_source.create: max_retries < 0";
  let sound l = Float.is_finite l && l >= 0.0 in
  let latency_sound =
    match latency with
    | Instant -> true
    | Constant l -> sound l
    | Jittered { base; jitter } -> sound base && sound jitter
  in
  if not latency_sound then
    invalid_arg "Probe_source.create: latency negative or not finite";
  let needs_rng =
    failure_rate > 0.0
    || (match latency with Jittered _ -> true | Instant | Constant _ -> false)
  in
  if needs_rng && rng = None then
    invalid_arg "Probe_source.create: rng required for jitter or failures";
  (* Two tiers of one cascade sharing an obs registry must not lump
     their counters onto the same names: a [tier] label prefixes every
     source metric with the tier and adds a per-tier retried slice. *)
  let prefix =
    match tier with
    | None -> "probe_source"
    | Some name -> "probe_source." ^ name
  in
  let ins =
    Option.map
      (fun o ->
        {
          m_attempts = Obs.counter o (prefix ^ ".attempts");
          m_resolved = Obs.counter o (prefix ^ ".resolved");
          m_tier_retried =
            Option.map
              (fun name -> Obs.counter o (Obs.Keys.tier_retried name))
              tier;
          h_latency = Obs.histogram o (prefix ^ ".wakeup_latency");
        })
      obs
  in
  {
    resolve;
    latency;
    failure_rate;
    max_retries;
    rng;
    faults = Fault_plan.injector_opt ?obs ~site:prefix faults;
    ins;
    probes = 0;
    attempts = 0;
    batches = 0;
    simulated_latency = 0.0;
  }

let sample_latency t =
  match t.latency with
  | Instant -> 0.0
  | Constant l -> l
  | Jittered { base; jitter } -> (
      match t.rng with
      | Some rng -> base +. Rng.float rng (Float.max jitter Float.epsilon)
      | None -> base)

let attempt_fails t =
  t.failure_rate > 0.0
  &&
  match t.rng with
  | Some rng -> Rng.bernoulli rng t.failure_rate
  | None -> false

(* One wakeup of the remote source: one latency sample, one batch
   dispatch — whether it carries one object or a whole batch. *)
let wakeup t =
  t.batches <- t.batches + 1;
  let l = sample_latency t in
  t.simulated_latency <- t.simulated_latency +. l;
  match t.ins with
  | Some i ->
      if Float.is_finite l then Metrics.observe i.h_latency (Float.max 0.0 l)
  | None -> ()

let note_attempt t =
  t.attempts <- t.attempts + 1;
  match t.ins with Some i -> Metrics.incr i.m_attempts | None -> ()

let note_resolved t =
  t.probes <- t.probes + 1;
  match t.ins with Some i -> Metrics.incr i.m_resolved | None -> ()

let note_retried t =
  match t.ins with
  | Some i -> Option.iter Metrics.incr i.m_tier_retried
  | None -> ()

(* Both failure draws happen unconditionally: the injected one comes
   from the injector's own stream, the simulated one from [t.rng], and
   evaluating both keeps each stream's consumption independent of the
   other's outcome — attaching an injector never shifts the simulated
   failure stream of a source that also simulates failures itself. *)
let roll_failure t element =
  let injected =
    match (t.faults, element) with
    | Some f, Some e -> Fault_plan.attempt f e
    | _ -> false
  in
  let simulated = attempt_fails t in
  injected || simulated

let fresh_element t =
  match t.faults with Some f -> Some (Fault_plan.fresh_element f) | None -> None

let probe_batch_outcomes t objs =
  let n = Array.length objs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let tries = Array.make n 0 in
    (* Permanence is drawn once per element, in index order, before any
       round runs — the draw sequence does not depend on how retries
       interleave. *)
    let elements = Array.init n (fun _ -> fresh_element t) in
    let pending = ref (List.init n Fun.id) in
    (* Each round is one wakeup: latency is paid once for the whole
       pending set, failures strike per element, and only the failed
       elements ride along to the next round.  An element that exhausts
       its retries settles as [Failed] — its siblings keep resolving,
       and the caller receives every outcome. *)
    while !pending <> [] do
      wakeup t;
      pending :=
        List.filter
          (fun i ->
            note_attempt t;
            tries.(i) <- tries.(i) + 1;
            if roll_failure t elements.(i) then
              if tries.(i) > t.max_retries then begin
                results.(i) <-
                  Some (Probe_driver.Failed { attempts = tries.(i) });
                false
              end
              else begin
                note_retried t;
                true
              end
            else begin
              results.(i) <- Some (Probe_driver.Resolved (t.resolve objs.(i)));
              note_resolved t;
              false
            end)
          !pending
    done;
    Array.map (function Some o -> o | None -> assert false) results
  end

let driver ?obs ?(batch_size = 1) t =
  Probe_driver.create_outcomes ?obs ~batch_size (probe_batch_outcomes t)

type stats = {
  probes : int;
  attempts : int;
  batches : int;
  simulated_latency : float;
}

let stats (t : _ t) : stats =
  {
    probes = t.probes;
    attempts = t.attempts;
    batches = t.batches;
    simulated_latency = t.simulated_latency;
  }
