let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) xs;
    !acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min xs =
  if Array.length xs = 0 then nan else Array.fold_left Float.min xs.(0) xs

let max xs =
  if Array.length xs = 0 then nan else Array.fold_left Float.max xs.(0) xs

let quantile xs q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0, 1]";
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  end

let median xs = quantile xs 0.5

let confidence95 xs =
  let n = Array.length xs in
  if n < 2 then 0.0 else 1.96 *. stddev xs /. sqrt (float_of_int n)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;
}

let summarize xs =
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = min xs;
    max = max xs;
    ci95 = confidence95 xs;
  }

module Welford = struct
  type t = { mutable count : int; mutable mean : float; mutable m2 : float }

  let create () = { count = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.count
  let mean t = t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
end
