type t =
  | Exact of float
  | Interval of Interval.t
  | Gaussian of { mean : float; stddev : float }

(* Standard deviations beyond which a Gaussian belief counts as
   impossible. *)
let cut = 4.0

let exact x =
  if not (Float.is_finite x) then invalid_arg "Uncertain.exact: not finite";
  Exact x

let interval lo hi = Interval (Interval.make lo hi)

let gaussian ~mean ~stddev () =
  if stddev <= 0.0 then invalid_arg "Uncertain.gaussian: stddev <= 0";
  if not (Float.is_finite mean) then invalid_arg "Uncertain.gaussian: mean";
  Gaussian { mean; stddev }

let laxity = function
  | Exact _ -> 0.0
  | Interval i -> Interval.width i
  | Gaussian { stddev; _ } -> stddev

let support = function
  | Exact x -> Interval.point x
  | Interval i -> i
  | Gaussian { mean; stddev } ->
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
  | Gaussian { mean; stddev } ->
      let rec draw () =
        let x = Rng.gaussian rng ~mean ~stddev in
        if Float.abs (x -. mean) <= cut *. stddev then x else draw ()
      in
      draw ()
