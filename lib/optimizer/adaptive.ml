type budget = { allotted : float; spent : unit -> float }

type t = {
  rng : Rng.t;
  total : int;
  max_laxity : float;
  requirements : Quality.requirements;
  cost : Cost_model.t;
  tiers : Probe_tier.spec array option;
  replan_every : int;
  max_replans : int;
  budget : budget option;
  mutable params : Policy.params;
  mutable yes_seen : int;
  mutable maybe_seen : int;
  mutable observed : int;  (* yes_seen + maybe_seen *)
  mutable next_replan_at : int;  (* in reads, from the counters *)
  mutable replans : int;
  mutable budget_replans : int;  (* re-solves through the dual *)
  yes_laxity : Histogram.Hist1d.t;
  maybe_plane : Histogram.Hist2d.t;
  obs : Obs.t option;
}

let create ~rng ~total ~max_laxity ~requirements ?(cost = Cost_model.paper)
    ?tiers ?(replan_every = 500) ?(max_replans = 8) ?budget
    ?initial ?obs () =
  if total <= 0 then invalid_arg "Adaptive.create: total <= 0";
  if not (Float.is_finite max_laxity && max_laxity > 0.0) then
    invalid_arg "Adaptive.create: max_laxity must be positive and finite";
  if replan_every < 1 then invalid_arg "Adaptive.create: replan_every < 1";
  if max_replans < 0 then invalid_arg "Adaptive.create: max_replans < 0";
  Option.iter Probe_tier.validate tiers;
  let initial =
    match initial with
    | Some p -> p
    | None ->
        let f_y, f_m = Planner.default_prior in
        (Planner.solve ~total ~f_y ~f_m ~max_laxity ~requirements ~cost ?tiers
           ())
          .params
  in
  {
    rng;
    total;
    max_laxity;
    requirements;
    cost;
    tiers;
    replan_every;
    max_replans;
    budget;
    params = initial;
    yes_seen = 0;
    maybe_seen = 0;
    observed = 0;
    next_replan_at = replan_every;
    replans = 0;
    budget_replans = 0;
    yes_laxity = Histogram.Hist1d.create ~lo:0.0 ~hi:max_laxity ~bins:20;
    maybe_plane =
      Histogram.Hist2d.create ~x_lo:0.0 ~x_hi:1.0 ~x_bins:20 ~y_lo:0.0
        ~y_hi:max_laxity ~y_bins:20;
    obs;
  }

let observe t ~verdict ~laxity ~success =
  match (verdict : Tvl.t) with
  | Tvl.Yes ->
      t.yes_seen <- t.yes_seen + 1;
      t.observed <- t.observed + 1;
      Histogram.Hist1d.add t.yes_laxity laxity
  | Tvl.Maybe ->
      t.maybe_seen <- t.maybe_seen + 1;
      t.observed <- t.observed + 1;
      Histogram.Hist2d.add t.maybe_plane ~x:success ~y:laxity
  | Tvl.No -> ()

let replan t ~reads =
  if reads > 0 && t.observed > 0 then begin
    let reads_f = float_of_int reads in
    let estimate : Selectivity.estimate =
      {
        f_y = float_of_int t.yes_seen /. reads_f;
        f_m = float_of_int t.maybe_seen /. reads_f;
        max_laxity = t.max_laxity;
        sample_size = reads;
        yes_laxity = t.yes_laxity;
        maybe_plane = t.maybe_plane;
      }
    in
    let density = Density.of_estimate estimate in
    let solve () =
      let total, budget =
        match t.budget with
        | None -> (t.total, None)
        | Some b ->
            (* Budgeted run: re-solve the dual over the remaining scan
               against whatever budget is left on the live meter,
               assuming the observed (s, l) density is stationary.  A
               mis-estimated selectivity then degrades the recall target
               gracefully instead of blowing the budget. *)
            let remaining = Float.max 0.0 (b.allotted -. b.spent ()) in
            t.budget_replans <- t.budget_replans + 1;
            (Int.max 1 (t.total - reads), Some remaining)
      in
      (Planner.solve ~total ~f_y:estimate.f_y ~f_m:estimate.f_m ~density
         ~max_laxity:t.max_laxity ~requirements:t.requirements ~cost:t.cost
         ?tiers:t.tiers ?budget ())
        .params
    in
    t.params <-
      (match t.obs with
      | None -> solve ()
      | Some o -> Obs.span o "adaptive-reestimate" solve);
    t.replans <- t.replans + 1;
    match t.obs with
    | Some o when Obs.tracing o -> Obs.event o (Trace.Replan { reads })
    | Some _ | None -> ()
  end

let policy t =
  Policy.Custom
    (fun ~requirements ~counters ~verdict ~laxity ~success ->
      observe t ~verdict ~laxity ~success;
      let reads = t.total - Counters.unseen counters in
      if reads >= t.next_replan_at && t.replans < t.max_replans then begin
        (* Advance to the smallest window boundary strictly beyond
           [reads]: when reads jump past several windows at once (bulk
           parallel chunks), exactly one re-solve runs — not one per
           skipped window on essentially identical histograms. *)
        t.next_replan_at <- ((reads / t.replan_every) + 1) * t.replan_every;
        replan t ~reads
      end;
      Policy.preference (Policy.Region t.params) ~rng:t.rng ~requirements
        ~counters ~verdict ~laxity ~success)

let current_params t = t.params
let budget_replans t = t.budget_replans
