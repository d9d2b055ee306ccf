type region = Histogram.Hist2d.plane_region = {
  mutable s_min : float;
  mutable l_min : float;
  mutable l_max : float;
  mutable mass : float;
  mutable mean_s : float;
}

let region ~s_min ~l_min ~l_max =
  { s_min; l_min; l_max; mass = 0.0; mean_s = 0.0 }

type t =
  | Uniform of { max_laxity : float }
  | Histogram of {
      yes_laxity : Histogram.Hist1d.t;
      maybe_plane : Histogram.Hist2d.t;
    }

(* [Float.min] and [Float.max] bit for bit, with no C call unless an
   argument is NaN (DESIGN §4, "Planner kernel"). *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if x = y then if 1.0 /. x < 0.0 then x else y
  else Float.min x y

let[@inline] fmax x y =
  if x < y then y
  else if y < x then x
  else if x = y then if 1.0 /. x < 0.0 then y else x
  else Float.max x y

let[@inline] clamp01 x = fmin 1.0 (fmax 0.0 x)

let[@inline] laxity_fraction ~max_laxity ~l_min ~l_max =
  let lo = fmax 0.0 l_min and hi = fmin max_laxity l_max in
  if hi <= lo then 0.0 else (hi -. lo) /. max_laxity

let uniform ~max_laxity =
  if not (Float.is_finite max_laxity && max_laxity > 0.0) then
    invalid_arg "Density.uniform: max_laxity <= 0";
  Uniform { max_laxity }

let of_estimate (e : Selectivity.estimate) =
  Histogram { yes_laxity = e.yes_laxity; maybe_plane = e.maybe_plane }

let yes_above t x =
  match t with
  | Uniform { max_laxity } -> laxity_fraction ~max_laxity ~l_min:x ~l_max:max_laxity
  | Histogram h -> Histogram.Hist1d.mass_above h.yes_laxity x

let maybe_region t r =
  match t with
  | Uniform { max_laxity } ->
      let s_min = clamp01 r.s_min in
      let mass =
        (1.0 -. s_min) *. laxity_fraction ~max_laxity ~l_min:r.l_min ~l_max:r.l_max
      in
      r.mass <- mass;
      (* Success uniform on (s_min, 1]: mean is the midpoint — exactly
         the paper's (s+1)/2 expected probe success. *)
      r.mean_s <- (if mass = 0.0 then 0.0 else (s_min +. 1.0) /. 2.0)
  | Histogram h -> Histogram.Hist2d.fill_region h.maybe_plane r
