type t = Yes | No | Maybe

let equal a b =
  match (a, b) with
  | Yes, Yes | No, No | Maybe, Maybe -> true
  | (Yes | No | Maybe), _ -> false

(* Order No < Maybe < Yes: the natural truth order of Kleene logic, under
   which [and_] is the meet and [or_] the join. *)
let rank = function No -> 0 | Maybe -> 1 | Yes -> 2
let to_string = function Yes -> "YES" | No -> "NO" | Maybe -> "MAYBE"
let of_bool b = if b then Yes else No
let not_ = function Yes -> No | No -> Yes | Maybe -> Maybe
let and_ a b = if rank a <= rank b then a else b
let or_ a b = if rank a >= rank b then a else b
let is_definite = function Yes | No -> true | Maybe -> false

(* The unboxed encoding reuses the truth order ([rank]), so packed
   verdict buffers compare the way the logic does. *)
let to_char t = Char.unsafe_chr (rank t)

let of_char c =
  match Char.code c with
  | 0 -> No
  | 1 -> Maybe
  | 2 -> Yes
  | n -> invalid_arg (Printf.sprintf "Tvl.of_char: %d" n)
