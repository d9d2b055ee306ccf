type spec = {
  seed : int;
  transient_rate : float;
  permanent_rate : float;
}

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Fault_plan.make: %s outside [0, 1]" name)

let make ?(seed = 0) ?(transient_rate = 0.0) ?(permanent_rate = 0.0) () =
  check_rate "transient_rate" transient_rate;
  check_rate "permanent_rate" permanent_rate;
  { seed; transient_rate; permanent_rate }

let none = make ()

let is_null s = s.transient_rate = 0.0 && s.permanent_rate = 0.0

type instruments = { m_injected : Metrics.counter }

type t = { plan : spec; rng : Rng.t; ins : instruments option }

(* The injector stream is a pure function of (seed, site): fold the site
   name into the seed with a simple multiplicative hash so two sites of
   one plan draw independent streams, reproducibly. *)
let site_seed seed site =
  String.fold_left
    (fun acc c -> (acc * 31) + Char.code c)
    (seed lxor 0x5DEECE66D)
    site

let injector_opt ?obs ~site plan =
  if is_null plan then None
  else
    let ins =
      Option.map
        (fun o -> { m_injected = Obs.counter o Obs.Keys.fault_injected })
        obs
    in
    Some { plan; rng = Rng.create (site_seed plan.seed site); ins }

type element = { permanent : bool }

let fresh_element t =
  {
    permanent =
      t.plan.permanent_rate > 0.0
      && Rng.bernoulli t.rng t.plan.permanent_rate;
  }

let fired t =
  match t.ins with Some i -> Metrics.incr i.m_injected | None -> ()

let attempt t e =
  if e.permanent then begin
    fired t;
    true
  end
  else if t.plan.transient_rate > 0.0 && Rng.bernoulli t.rng t.plan.transient_rate
  then begin
    fired t;
    true
  end
  else false

(* Mix the site's seed fully once, then fold the key in: keys of two
   sites then seed unrelated generators, and [Rng.create] mixes again. *)
let permanent plan ~site =
  let rate = plan.permanent_rate in
  if rate = 0.0 then fun _ -> false
  else
    let base =
      Int64.to_int (Rng.bits64 (Rng.create (site_seed plan.seed site)))
    in
    fun key -> Rng.bernoulli (Rng.create (base lxor key)) rate
