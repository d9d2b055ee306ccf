(** Building {!Cascade}s from {!Probe_tier} specs and per-tier
    {!Probe_source}s.

    A [Resolve] tier's source resolves objects to points (today's
    oracle).  A [Shrink] tier's source maps an object to its {e
    narrowed} — still possibly imprecise — version; the tier driver
    re-tags its outcomes as {!Probe_driver.Shrunk} so the operator
    re-classifies them instead of trusting them as points.  Failures
    pass through and fail over tier-by-tier in [Operator.run]. *)

val of_functions :
  ?obs:Obs.t ->
  ?max_retries:int ->
  ?faults:Fault_plan.spec ->
  specs:Probe_tier.spec array ->
  narrow:(power:float -> 'o -> 'o) ->
  resolve:('o -> 'o) ->
  unit ->
  'o Cascade.t * 'o Probe_source.t array
(** One tier-labelled {!Probe_source} per spec — [Shrink {power}] tiers
    use [narrow ~power], the [Resolve] tier uses [resolve] — paired
    into one {!Cascade.t} that starts at {!Probe_tier.select}'s cheapest
    tier; the sources come back too, for their statistics.  Each source
    answers instantly and never fails on its own, so faults come only
    from [faults].  @raise Invalid_argument on invalid specs.  The
    shared [faults] spec is instantiated per tier at site
    ["probe_source.<tier>"], so each tier draws an independent fault
    stream.  The convenience the CLI's [--tiers] flag wires through. *)
