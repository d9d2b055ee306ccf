(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014.  The golden-gamma
   constant 0x9e3779b97f4a7c15 is the odd integer closest to 2^64/phi. *)

(* The 64-bit state lives unboxed in 8 bytes, so a draw reads and
   writes it in place: with the helpers below inlined, [int], [uniform]
   and [bernoulli] allocate nothing (a [mutable int64] field would box
   a fresh state on every draw).  Only a [bits64] result returned out
   of this module is boxed. *)
type t = Bytes.t

let golden_gamma = 0x9e3779b97f4a7c15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

(* Advance the state by the golden gamma; return the new state. *)
let[@inline] next_state t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  state

let create seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy
let[@inline] bits64 t = mix64 (next_state t)
let split t = of_state (mix64 (bits64 t))

(* Uniform int in [0, bound) by rejection on the top bits, avoiding the
   modulo bias of a plain [mod]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let result = ref (-1) in
  while !result < 0 do
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw bound64 in
    (* Reject the final partial block so every residue is equally likely. *)
    if Int64.sub (Int64.add raw (Int64.sub bound64 1L)) v >= 0L then
      result := Int64.to_int v
  done;
  !result

let[@inline] uniform t =
  (* 53 uniformly random mantissa bits, as in the standard doubles trick. *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float t bound =
  if not (bound > 0.0 && Float.is_finite bound) then
    invalid_arg "Rng.float: bound must be finite and positive";
  uniform t *. bound

let uniform_in t lo hi =
  if lo > hi then invalid_arg "Rng.uniform_in: lo > hi";
  lo +. (uniform t *. (hi -. lo))

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

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
