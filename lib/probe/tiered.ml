(* Build a Cascade from Probe_tier specs and per-tier Probe_sources.

   A [Resolve] tier's source resolves objects to points — its driver is
   exactly [Probe_source.driver].  A [Shrink] tier's source "resolves"
   an object to its narrowed (still possibly imprecise) version: the
   tier driver re-tags every [Resolved] outcome as [Shrunk] so the
   operator re-classifies instead of trusting the result as a point.
   Failures pass through untouched and fail over in the operator. *)

let shrink_resolver src objs =
  Array.map
    (function
      | Probe_driver.Resolved o -> Probe_driver.Shrunk o
      | (Probe_driver.Shrunk _ | Probe_driver.Failed _) as other -> other)
    (Probe_source.probe_batch_outcomes src objs)

let driver_of_tier ?obs ~(spec : Probe_tier.spec) src =
  let resolver =
    match spec.Probe_tier.kind with
    | Probe_tier.Resolve -> Probe_source.probe_batch_outcomes src
    | Probe_tier.Shrink _ -> shrink_resolver src
  in
  Probe_driver.create_outcomes ?obs ~batch_size:spec.Probe_tier.batch resolver

let of_functions ?obs ?max_retries ?faults ~(specs : Probe_tier.spec array)
    ~narrow ~resolve () =
  let srcs =
    Array.map
      (fun (spec : Probe_tier.spec) ->
        let f =
          match spec.Probe_tier.kind with
          | Probe_tier.Resolve -> resolve
          | Probe_tier.Shrink { power } -> narrow ~power
        in
        Probe_source.create ?obs ~tier:spec.Probe_tier.name ?max_retries
          ?faults f)
      specs
  in
  Probe_tier.validate specs;
  let drivers =
    Array.map2 (fun spec src -> driver_of_tier ?obs ~spec src) specs srcs
  in
  (Cascade.create ~specs drivers, srcs)
