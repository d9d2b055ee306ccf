type counts = {
  reads : int;
  probes : int;
  batches : int;
  writes_imprecise : int;
  writes_precise : int;
}

type t = {
  mutable reads : int;
  mutable probes : int;
  mutable batches : int;
  mutable writes_imprecise : int;
  mutable writes_precise : int;
  (* Per-cascade-tier breakdown of [probes]/[batches]; slot [i] is tier
     [i].  Grown on a tier's first charge; untier'd charges (relational
     probes, planning pilots) never touch it. *)
  mutable tier_probes : int array;
  mutable tier_batches : int array;
}

let create () =
  {
    reads = 0;
    probes = 0;
    batches = 0;
    writes_imprecise = 0;
    writes_precise = 0;
    tier_probes = [||];
    tier_batches = [||];
  }

let charge_read t = t.reads <- t.reads + 1
let charge_probe t = t.probes <- t.probes + 1

(* Every operator probe is tier-charged, so the per-tier slots grow only
   on a tier's first charge and the common path allocates nothing. *)
let grown arr i =
  let a = Array.make (i + 1) 0 in
  Array.blit arr 0 a 0 (Array.length arr);
  a

let charge_probe_tier t i =
  if i < 0 then invalid_arg "Cost_meter.charge_probe_tier";
  if i >= Array.length t.tier_probes then
    t.tier_probes <- grown t.tier_probes i;
  t.tier_probes.(i) <- t.tier_probes.(i) + 1;
  t.probes <- t.probes + 1

let charge_batch_tier t i =
  if i < 0 then invalid_arg "Cost_meter.charge_batch_tier";
  if i >= Array.length t.tier_batches then
    t.tier_batches <- grown t.tier_batches i;
  t.tier_batches.(i) <- t.tier_batches.(i) + 1;
  t.batches <- t.batches + 1

let charge_write_imprecise t = t.writes_imprecise <- t.writes_imprecise + 1
let charge_write_precise t = t.writes_precise <- t.writes_precise + 1

let counts t : counts =
  {
    reads = t.reads;
    probes = t.probes;
    batches = t.batches;
    writes_imprecise = t.writes_imprecise;
    writes_precise = t.writes_precise;
  }

let cost_of_counts (m : Cost_model.t) (c : counts) =
  (float_of_int c.reads *. m.c_r)
  +. (float_of_int c.probes *. m.c_p)
  +. (float_of_int c.batches *. m.c_b)
  +. (float_of_int c.writes_imprecise *. m.c_wi)
  +. (float_of_int c.writes_precise *. m.c_wp)

let total_cost m t = cost_of_counts m (counts t)

let slot arr i = if i < Array.length arr then arr.(i) else 0

(* Tiered total: every probe/batch is first priced at the base model,
   exactly as [total_cost] does, then each tier's work is re-priced by
   its difference from the base, [p_i·(c_p_i − c_p) + b_i·(c_b_i − c_b)].
   A tier priced at the base therefore adds exactly [0.0], so a
   one-tier cascade's total is bit-for-bit [total_cost] under any cost
   model; untier'd work (e.g. planning pilots) keeps the base prices. *)
let tiered_cost (m : Cost_model.t) ~(tiers : Probe_tier.spec array) t =
  let surcharge = ref 0.0 in
  Array.iteri
    (fun i (s : Probe_tier.spec) ->
      let p = float_of_int (slot t.tier_probes i)
      and b = float_of_int (slot t.tier_batches i) in
      surcharge :=
        !surcharge
        +. (p *. (s.Probe_tier.c_p -. m.c_p))
        +. (b *. (s.Probe_tier.c_b -. m.c_b)))
    tiers;
  total_cost m t +. !surcharge

(* The metrics side is incremented at observability instrumentation
   sites, the meter at cost-charging sites; equality of the two is the
   "all work is metered" invariant the test suite enforces. *)
let reconcile snapshot (c : counts) =
  let check name expected errs =
    let got = Metrics.count_of snapshot name in
    if got = expected then errs
    else
      Printf.sprintf "%s: metrics say %d, meter says %d" name got expected
      :: errs
  in
  let errs =
    []
    |> check Obs.Keys.reads c.reads
    |> check Obs.Keys.probes c.probes
    |> check Obs.Keys.batches c.batches
    |> check Obs.Keys.writes_imprecise c.writes_imprecise
    |> check Obs.Keys.writes_precise c.writes_precise
  in
  match errs with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

(* Per-tier flavour: the base five names must agree as in [reconcile],
   and additionally each tier's qaq.probe.tier.<name>.{probes,batches}
   counter must equal the meter's per-tier slot. *)
let reconcile_tiers snapshot ~(names : string array) t =
  let check name expected errs =
    let got = Metrics.count_of snapshot name in
    if got = expected then errs
    else
      Printf.sprintf "%s: metrics say %d, meter says %d" name got expected
      :: errs
  in
  let base = reconcile snapshot (counts t) in
  let errs = match base with Ok () -> [] | Error e -> [ e ] in
  let errs = ref errs in
  Array.iteri
    (fun i name ->
      errs := check (Obs.Keys.tier_probes name) (slot t.tier_probes i) !errs;
      errs := check (Obs.Keys.tier_batches name) (slot t.tier_batches i) !errs)
    names;
  match !errs with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

let pp_counts ppf (c : counts) =
  Format.fprintf ppf
    "reads=%d probes=%d batches=%d writes_imprecise=%d writes_precise=%d"
    c.reads c.probes c.batches c.writes_imprecise c.writes_precise
