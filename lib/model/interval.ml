type t = { lo : float; hi : float }

let make lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Interval.make: bounds must be finite";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let point x = make x x
let lo t = t.lo
let hi t = t.hi
let width t = t.hi -. t.lo
let is_point t = t.lo = t.hi
let contains t x = t.lo <= x && x <= t.hi
let subset a b = b.lo <= a.lo && a.hi <= b.hi
let intersects a b = a.lo <= b.hi && b.lo <= a.hi

let intersection a b =
  if intersects a b then Some { lo = Float.max a.lo b.lo; hi = Float.min a.hi b.hi }
  else None

let sample rng t = if is_point t then t.lo else Rng.uniform_in rng t.lo t.hi

let classify_le t x =
  if t.hi <= x then Tvl.Yes else if t.lo > x then Tvl.No else Tvl.Maybe

let clamp01 p = Float.min 1.0 (Float.max 0.0 p)

let success_le t x =
  if is_point t then (if t.lo <= x then 1.0 else 0.0)
  else clamp01 ((x -. t.lo) /. width t)

let success_between t a b =
  if is_point t then (if a <= t.lo && t.lo <= b then 1.0 else 0.0)
  else if a > b then 0.0
  else begin
    let covered = Float.min t.hi b -. Float.max t.lo a in
    clamp01 (covered /. width t)
  end
