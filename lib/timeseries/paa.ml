type t = {
  source_length : int;
  means : float array;
  mins : float array;
  maxs : float array;
  (* Segment i covers indices [starts.(i), starts.(i+1)). *)
  starts : int array;
}

let compress ~segments series =
  let n = Time_series.length series in
  if segments < 1 || segments > n then invalid_arg "Paa.compress: segments";
  let starts =
    Array.init (segments + 1) (fun i -> i * n / segments)
  in
  let means = Array.make segments 0.0 in
  let mins = Array.make segments infinity in
  let maxs = Array.make segments neg_infinity in
  for s = 0 to segments - 1 do
    let lo = starts.(s) and hi = starts.(s + 1) in
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      let v = Time_series.get series i in
      sum := !sum +. v;
      if v < mins.(s) then mins.(s) <- v;
      if v > maxs.(s) then maxs.(s) <- v
    done;
    means.(s) <- !sum /. float_of_int (hi - lo)
  done;
  { source_length = n; means; mins; maxs; starts }

let segments t = Array.length t.means

let compression_ratio t =
  3.0 *. float_of_int (segments t) /. float_of_int t.source_length

let distance_bounds t q =
  if Time_series.length q <> t.source_length then
    invalid_arg "Paa.distance_bounds: length mismatch";
  let lb2 = ref 0.0 and ub2 = ref 0.0 in
  for s = 0 to segments t - 1 do
    for i = t.starts.(s) to t.starts.(s + 1) - 1 do
      let qi = Time_series.get q i in
      let below = t.mins.(s) -. qi and above = qi -. t.maxs.(s) in
      (* Point-wise: the true value lies in [min, max], so the distance
         to qi is at least its distance to the interval and at most the
         distance to the farther endpoint. *)
      let lo = Float.max 0.0 (Float.max below above) in
      let hi = Float.max (Float.abs (qi -. t.mins.(s))) (Float.abs (qi -. t.maxs.(s))) in
      lb2 := !lb2 +. (lo *. lo);
      ub2 := !ub2 +. (hi *. hi)
    done
  done;
  Interval.make (sqrt !lb2) (sqrt !ub2)
