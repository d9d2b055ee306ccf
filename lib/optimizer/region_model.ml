type spec = {
  f_y : float;
  f_m : float;
  max_laxity : float;
  density : Density.t;
}

let spec ~f_y ~f_m ~max_laxity ~density =
  (* Positive form: NaN fails every comparison and is rejected. *)
  if not (f_y >= 0.0 && f_m >= 0.0 && f_y +. f_m <= 1.0 +. 1e-12) then
    invalid_arg "Region_model.spec: invalid selectivity fractions";
  if not (Float.is_finite max_laxity && max_laxity > 0.0) then
    invalid_arg "Region_model.spec: max_laxity <= 0";
  { f_y; f_m; max_laxity; density }

type fractions = {
  yes : float;
  maybe : float;
  yes_probed : float;
  yes_forwarded : float;
  maybe_probed : float;
  maybe_forwarded : float;
  maybe_probe_yes : float;
}

let fractions t ~laxity_bound (p : Policy.params) =
  let lq = laxity_bound in
  let yes_hi = Density.yes_above t.density lq in
  let yes_lo = Float.max 0.0 (1.0 -. yes_hi) in
  (* One region, refilled for each rectangle of the plane. *)
  let r = Density.region ~s_min:0.0 ~l_min:0.0 ~l_max:0.0 in
  let fill ~s_min ~l_min ~l_max =
    r.s_min <- s_min;
    r.l_min <- l_min;
    r.l_max <- l_max;
    Density.maybe_region t.density r
  in
  (* Region 3: MAYBE above the laxity bound with s > s3, probed. *)
  fill ~s_min:p.s3 ~l_min:lq ~l_max:t.max_laxity;
  let r3_mass = r.mass and r3_mean_s = r.mean_s in
  (* Region 5: MAYBE below the bound with s > s5, probed. *)
  fill ~s_min:p.s5 ~l_min:(-1.0) ~l_max:lq;
  let r5_mass = r.mass and r5_mean_s = r.mean_s in
  (* Region 4: the rest of the MAYBEs below the bound. *)
  fill ~s_min:0.0 ~l_min:(-1.0) ~l_max:lq;
  let r4_mass = Float.max 0.0 (r.mass -. r5_mass) in
  let p3 = r3_mass *. t.f_m in
  let p5 = r5_mass *. t.f_m in
  {
    yes = t.f_y;
    maybe = t.f_m;
    yes_probed = p.p_py *. yes_hi *. t.f_y;
    yes_forwarded = yes_lo *. t.f_y;
    maybe_probed = p3 +. p5;
    maybe_forwarded = p.p_fm *. r4_mass *. t.f_m;
    maybe_probe_yes = (r3_mean_s *. p3) +. (r5_mean_s *. p5);
  }

let answer_yes_rate f = f.yes_probed +. f.yes_forwarded +. f.maybe_probe_yes

let precision_estimate f =
  let alpha = answer_yes_rate f in
  let answer = alpha +. f.maybe_forwarded in
  if answer <= 0.0 then 1.0 else alpha /. answer

let uncertainty_rate f =
  f.yes +. f.maybe +. f.maybe_probe_yes -. f.maybe_probed -. f.maybe_forwarded

let unit_cost (c : Cost_model.t) f =
  c.c_r
  +. ((f.yes_probed +. f.maybe_probed) *. c.c_p)
  +. ((f.yes_forwarded +. f.maybe_forwarded) *. c.c_wi)
  +. ((f.yes_probed +. f.maybe_probe_yes) *. c.c_wp)
