type region = Histogram.Hist2d.plane_region = {
  mutable s_min : float;
  mutable l_min : float;
  mutable l_max : float;
  mutable mass : float;
  mutable mean_s : float;
}

let region ~s_min ~l_min ~l_max =
  { s_min; l_min; l_max; mass = 0.0; mean_s = 0.0 }

type t = { yes_above : float -> float; maybe_region : region -> unit }

(* [Float.min] and [Float.max] with the strict cases decided by one
   comparison: the stdlib tests sign bits (a C call) whenever its first
   comparison fails.  Ties and NaNs go to the stdlib, so every result,
   -0.0 and NaN included, is the stdlib's bit for bit. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else Float.min x y

let[@inline] fmax x y = if x < y then y else if y < x then x else Float.max x y

let[@inline] clamp01 x = fmin 1.0 (fmax 0.0 x)

let[@inline] laxity_fraction max_laxity l_min l_max =
  let lo = fmax 0.0 l_min and hi = fmin max_laxity l_max in
  if hi <= lo then 0.0 else (hi -. lo) /. max_laxity

let uniform ~max_laxity =
  if not (Float.is_finite max_laxity && max_laxity > 0.0) then
    invalid_arg "Density.uniform: max_laxity <= 0";
  {
    yes_above = (fun x -> laxity_fraction max_laxity x max_laxity);
    maybe_region =
      (fun r ->
        let s_min = clamp01 r.s_min in
        let mass =
          (1.0 -. s_min) *. laxity_fraction max_laxity r.l_min r.l_max
        in
        r.mass <- mass;
        (* Success uniform on (s_min, 1]: mean is the midpoint — exactly
           the paper's (s+1)/2 expected probe success. *)
        r.mean_s <- (if mass = 0.0 then 0.0 else (s_min +. 1.0) /. 2.0));
  }

let of_estimate (e : Selectivity.estimate) =
  {
    yes_above = (fun x -> Histogram.Hist1d.mass_above e.yes_laxity x);
    maybe_region = Histogram.Hist2d.fill_region e.maybe_plane;
  }
