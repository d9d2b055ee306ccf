type t =
  | Exact of float
  | Interval of Interval.t
  | Gaussian of { mean : float; stddev : float; cut : float }

let exact x =
  if not (Float.is_finite x) then invalid_arg "Uncertain.exact: not finite";
  Exact x

let interval lo hi = Interval (Interval.make lo hi)

let gaussian ?(cut = 4.0) ~mean ~stddev () =
  if stddev <= 0.0 then invalid_arg "Uncertain.gaussian: stddev <= 0";
  if cut <= 0.0 then invalid_arg "Uncertain.gaussian: cut <= 0";
  if not (Float.is_finite mean) then invalid_arg "Uncertain.gaussian: mean";
  Gaussian { mean; stddev; cut }

let laxity = function
  | Exact _ -> 0.0
  | Interval i -> Interval.width i
  | Gaussian { stddev; _ } -> stddev

let support = function
  | Exact x -> Interval.point x
  | Interval i -> i
  | Gaussian { mean; stddev; cut } ->
      Interval.make (mean -. (cut *. stddev)) (mean +. (cut *. stddev))

let success_between t a b =
  match t with
  | Exact v -> if a <= v && v <= b then 1.0 else 0.0
  | Interval i -> Interval.success_between i a b
  | Gaussian { mean; stddev; _ } ->
      if a > b then 0.0
      else
        Math_special.normal_cdf ~mean ~stddev b
        -. Math_special.normal_cdf ~mean ~stddev a

let sample rng = function
  | Exact x -> x
  | Interval i -> Interval.sample rng i
  | Gaussian { mean; stddev; cut } ->
      let rec draw () =
        let x = Rng.gaussian rng ~mean ~stddev in
        if Float.abs (x -. mean) <= cut *. stddev then x else draw ()
      in
      draw ()
