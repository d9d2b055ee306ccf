(* The SplitMix64 generator as it stood with its state in a
   [mutable int64] field, which boxes a fresh state on every draw: a
   verbatim copy of [Rng]'s state, [create], [copy], [bits64], [split],
   [int], [uniform], [bernoulli] and [gaussian] from before the state
   moved into bytes.  [test_rng.ml] checks the live generator against
   it draw for draw. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  { state = mix64 seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw bound64 in
    if Int64.sub (Int64.add raw (Int64.sub bound64 1L)) v < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

let uniform t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let bernoulli t p =
  if p >= 1.0 then true else if p <= 0.0 then false else uniform t < p

let gaussian t ~mean ~stddev =
  let rec polar () =
    let u = (2.0 *. uniform t) -. 1.0 in
    let v = (2.0 *. uniform t) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then polar ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  mean +. (stddev *. polar ())
