type t = { metrics : Metrics.t; trace : Trace.sink; clock : unit -> float }

let create ?(trace = Trace.null) ?(clock = Span.default_clock) () =
  { metrics = Metrics.create (); trace; clock }

let metrics t = t.metrics
let trace t = t.trace
let with_context t ctx = { t with trace = Trace.with_context ctx t.trace }
let clock t = t.clock
let now t = t.clock ()
let counter t name = Metrics.counter t.metrics name
let gauge t name = Metrics.gauge t.metrics name
let histogram t name = Metrics.histogram t.metrics name
let tracing t = Trace.enabled t.trace
let event t e = Trace.emit t.trace e

let span t name f =
  if Trace.enabled t.trace then begin
    (* The phase event carries the same duration the span metric
       accumulates, so a trace viewer and the metrics agree. *)
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        Trace.emit t.trace (Trace.Phase { name; seconds = t.clock () -. t0 }))
      (fun () -> Span.time ~clock:t.clock t.metrics name f)
  end
  else Span.time ~clock:t.clock t.metrics name f

let snapshot t = Metrics.snapshot t.metrics

module Keys = struct
  let reads = "qaq.reads"
  let probes = "qaq.probes"
  let batches = "qaq.batches"
  let writes_imprecise = "qaq.writes_imprecise"
  let writes_precise = "qaq.writes_precise"
  let sample_reads = "engine.sample_reads"
  let parallel_chunks = "qaq.parallel.chunks"
  let pruned_pages = "qaq.parallel.pruned_pages"
  let parallel_domains = "qaq.parallel.domains"
  let domain_busy i = Printf.sprintf "qaq.parallel.domain%d.busy_seconds" i
  let maybe_laxity = "qaq.maybe.laxity"
  let maybe_success = "qaq.maybe.success"
  let broker_requests = "qaq.broker.requests"
  let broker_admitted = "qaq.broker.admitted"
  let broker_charged = "qaq.broker.charged"
  let broker_coalesced = "qaq.broker.coalesced"
  let broker_fresh_hits = "qaq.broker.fresh_hits"
  let broker_rejected = "qaq.broker.rejected"
  let broker_batches = "qaq.broker.batches"
  let broker_batch_fill = "qaq.broker.batch_fill"
  let broker_queue_wait = "qaq.broker.queue_wait_seconds"
  let tier_probes name = "qaq.probe.tier." ^ name ^ ".probes"
  let tier_batches name = "qaq.probe.tier." ^ name ^ ".batches"
  let tier_shrinks name = "qaq.probe.tier." ^ name ^ ".shrinks"
  let tier_failovers name = "qaq.probe.tier." ^ name ^ ".failovers"
  let tier_retried name = "qaq.probe.tier." ^ name ^ ".retried"
  let ahead_waits_guard = "qaq.probe.ahead_waits.guard"
  let ahead_waits_stop = "qaq.probe.ahead_waits.stop"
  let fault_injected = "qaq.fault.injected"
  let fault_degraded = "qaq.fault.degraded"
  let fault_breaker_state = "qaq.fault.breaker_state"
  let fault_outage_rounds = "qaq.fault.outage_rounds"
end
