type t = float array

let of_array a =
  if Array.length a = 0 then invalid_arg "Time_series.of_array: empty";
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg "Time_series.of_array: non-finite value")
    a;
  Array.copy a

let length = Array.length
let get t i = t.(i)

let euclidean_distance a b =
  if Array.length a <> Array.length b then
    invalid_arg "Time_series.euclidean_distance: length mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      acc := !acc +. (d *. d))
    a;
  sqrt !acc

let map f t = Array.map f t

let random_walk rng ~length ~start ~step_stddev =
  if length < 1 then invalid_arg "Time_series.random_walk: length < 1";
  let t = Array.make length start in
  for i = 1 to length - 1 do
    t.(i) <- t.(i - 1) +. Rng.gaussian rng ~mean:0.0 ~stddev:step_stddev
  done;
  t

let with_motif _rng ~base ~motif ~at ~amplitude =
  let n = Array.length base and m = Array.length motif in
  if at < 0 || at + m > n then invalid_arg "Time_series.with_motif: bounds";
  let t = Array.copy base in
  for i = 0 to m - 1 do
    t.(at + i) <- t.(at + i) +. (amplitude *. motif.(i))
  done;
  t
