type config = {
  total : int;
  f_y : float;
  f_m : float;
  max_laxity : float;
}

(* Written positively so that NaN, which fails every comparison, is
   rejected rather than let through. *)
let valid_fractions f_y f_m = f_y >= 0.0 && f_m >= 0.0 && f_y +. f_m <= 1.0

let config ?(total = 10000) ?(f_y = 0.2) ?(f_m = 0.2) ?(max_laxity = 100.0) () =
  if total < 0 then invalid_arg "Synthetic.config: total < 0";
  if not (valid_fractions f_y f_m) then
    invalid_arg "Synthetic.config: invalid fractions";
  if not (Float.is_finite max_laxity && max_laxity > 0.0) then
    invalid_arg "Synthetic.config: max_laxity <= 0";
  { total; f_y; f_m; max_laxity }

type obj = {
  id : int;
  label : Tvl.t;
  laxity : float;
  success : float;
  probe_yes : bool;
  resolved : bool;
}

let make ~id ~label ~laxity ~success ~probe_yes ~resolved =
  if not (Float.is_finite laxity && laxity >= 0.0) then
    invalid_arg "Synthetic.make: laxity is negative or not finite";
  if not (success >= 0.0 && success <= 1.0) then
    invalid_arg "Synthetic.make: success outside [0, 1]";
  (match (label : Tvl.t) with
  | Tvl.Yes ->
      if not (probe_yes && success = 1.0) then
        invalid_arg "Synthetic.make: YES object must probe YES with success 1"
  | Tvl.No ->
      if probe_yes || success <> 0.0 then
        invalid_arg "Synthetic.make: NO object must probe NO with success 0"
  | Tvl.Maybe -> ());
  { id; label; laxity; success; probe_yes; resolved }

let generate_with rng cfg ~draw_laxity ~draw_success =
  Array.init cfg.total (fun id ->
      let u = Rng.uniform rng in
      let label =
        if u < cfg.f_y then Tvl.Yes
        else if u < cfg.f_y +. cfg.f_m then Tvl.Maybe
        else Tvl.No
      in
      let success =
        match label with
        | Tvl.Yes -> 1.0
        | Tvl.No -> 0.0
        | Tvl.Maybe -> draw_success rng
      in
      let probe_yes =
        match label with
        | Tvl.Yes -> true
        | Tvl.No -> false
        | Tvl.Maybe -> Rng.bernoulli rng success
      in
      { id; label; laxity = draw_laxity rng; success; probe_yes; resolved = false })

let generate rng cfg =
  generate_with rng cfg
    ~draw_laxity:(fun rng -> Rng.float rng cfg.max_laxity)
    ~draw_success:Rng.uniform

let generate_skewed rng cfg ~laxity_exponent ~success_exponent =
  if laxity_exponent <= 0.0 || success_exponent <= 0.0 then
    invalid_arg "Synthetic.generate_skewed: non-positive exponent";
  generate_with rng cfg
    ~draw_laxity:(fun rng ->
      cfg.max_laxity *. Float.pow (Rng.uniform rng) laxity_exponent)
    ~draw_success:(fun rng -> Float.pow (Rng.uniform rng) success_exponent)

let instance : obj Operator.instance =
  {
    classify =
      (fun o ->
        if o.resolved then Tvl.of_bool o.probe_yes else o.label);
    laxity = (fun o -> if o.resolved then 0.0 else o.laxity);
    success =
      (fun o ->
        if o.resolved then (if o.probe_yes then 1.0 else 0.0) else o.success);
  }

let probe o = { o with resolved = true }

let shrink ~power o =
  if not (Float.is_finite power && power >= 0.0 && power <= 1.0) then
    invalid_arg "Synthetic.shrink: power outside [0, 1]";
  if o.resolved || power = 0.0 then o
  else if power = 1.0 then probe o
  else
    let keep = 1.0 -. power in
    let success =
      match o.label with
      | Tvl.Maybe ->
          if o.probe_yes then 1.0 -. (keep *. (1.0 -. o.success))
          else keep *. o.success
      | Tvl.Yes | Tvl.No -> o.success
    in
    { o with laxity = keep *. o.laxity; success }

let in_exact o = o.probe_yes

let exact_size objects =
  Array.fold_left (fun acc o -> if in_exact o then acc + 1 else acc) 0 objects
